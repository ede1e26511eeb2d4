package sim

import (
	"errors"
	"fmt"
	"math"

	"amdahlyd/internal/core"
	"amdahlyd/internal/failures"
)

// ReplayResult reports a VC-protocol replay against a recorded failure
// trace: every fail-stop and silent event in the trace is applied at its
// recorded (exposure-time) instant, with the model's phase semantics —
// silent errors only corrupt computation, protected phases discard them,
// and downtime consumes wall clock but no trace time.
//
// Replay is the bridge between failure logs and the model: a synthetic
// trace generated by failures.GenerateTraceDist reproduces the Monte-Carlo
// simulator statistically (a property the tests assert), and a real
// machine log in the same CSV format can be replayed unchanged. The
// stats cover as many whole patterns as the trace horizon accommodates.
type ReplayResult struct {
	PatternStats
	// TraceExhausted reports that the trace horizon ended mid-pattern;
	// the partial pattern is not counted.
	TraceExhausted bool
}

// replayCursor plays the VC protocol against a trace in "exposure time":
// the trace clock counts only operational (error-exposed) time, so a
// downtime consumes wall clock but zero trace time — exactly the "no
// error strikes during downtime" rule. By memorylessness this matches
// the Monte-Carlo simulator's fresh-draw-after-downtime behaviour in
// distribution.
type replayCursor struct {
	events []failures.Event
	pos    int
	hor    float64
	now    float64 // exposure time (wall-clock minus downtimes)
	res    ReplayResult

	t, checkpoint, recovery, verify, downtime float64
}

// nextIn reports the first event within the exposure window
// [now, now+length) of the given phase, honouring the protection rules:
// silent events outside computation phases are consumed and ignored.
func (c *replayCursor) nextIn(length float64, computation bool) (failures.Event, float64, bool) {
	for ; c.pos < len(c.events); c.pos++ {
		ev := c.events[c.pos]
		if ev.Time >= c.now+length {
			break
		}
		if ev.Kind == failures.Silent && !computation {
			continue // protected phase: silent arrival discarded
		}
		c.pos++
		return ev, ev.Time - c.now, true
	}
	return failures.Event{}, 0, false
}

// advance completes a window of the given length.
func (c *replayCursor) advance(length float64) {
	c.now += length
	c.res.Elapsed += length
}

// failStop charges a fail-stop off seconds into the current window and
// its downtime, then plays the recoveries that follow. It reports false
// when the trace runs out first.
func (c *replayCursor) failStop(off float64) bool {
	c.res.FailStops++
	c.now += off
	c.res.Elapsed += off + c.downtime
	return c.rollback()
}

// rollback plays recoveries until one completes. It reports false when
// the trace runs out first.
func (c *replayCursor) rollback() bool {
	for c.now+c.recovery <= c.hor {
		c.res.Recoveries++
		// Only fail-stop events strike a recovery (silent filtered).
		if _, off, struck := c.nextIn(c.recovery, false); struck {
			c.res.FailStops++
			c.now += off
			c.res.Elapsed += off + c.downtime
			continue
		}
		c.advance(c.recovery)
		return true
	}
	return false
}

// pattern plays one pattern to completion: T (computation), V and C,
// each window walked separately so silent protection is honoured per
// phase. It reports false when the trace runs out first; the partial
// pattern is not counted.
func (c *replayCursor) pattern() bool {
	for c.now+c.t+c.verify+c.checkpoint <= c.hor {
		// Computation window: a silent corruption is remembered and the
		// computation goes on; a fail-stop aborts the attempt.
		silentPending := false
		ev, off, struck := c.nextIn(c.t, true)
		for struck && ev.Kind == failures.Silent {
			silentPending = true
			ev, off, struck = c.nextIn(c.t, true)
		}
		if struck {
			if !c.failStop(off) {
				return false
			}
			continue
		}
		c.advance(c.t)

		// Verification window (protected from silent errors).
		if _, off, struck := c.nextIn(c.verify, false); struck {
			if !c.failStop(off) {
				return false
			}
			continue
		}
		c.advance(c.verify)
		if silentPending {
			// Verification detects the corruption: recover, retry.
			c.res.SilentDetections++
			if !c.rollback() {
				return false
			}
			continue
		}

		// Checkpoint window (protected).
		if _, off, struck := c.nextIn(c.checkpoint, false); struck {
			if !c.failStop(off) {
				return false
			}
			continue
		}
		c.advance(c.checkpoint)
		return true
	}
	return false
}

// SimulateReplay runs PATTERN(T, P) of the model against the trace and
// returns per-pattern statistics. The trace must have been generated (or
// recorded) at the machine level: per-processor events with the model's
// λ_ind and fail-stop fraction. P is only used to derive the resilience
// costs; the error arrivals come entirely from the trace.
func SimulateReplay(m core.Model, t, p float64, tr *failures.Trace) (ReplayResult, error) {
	if err := m.Validate(); err != nil {
		return ReplayResult{}, err
	}
	if !(t > 0) || math.IsInf(t, 0) || !(p >= 1) || math.IsInf(p, 0) {
		return ReplayResult{}, fmt.Errorf("sim: invalid pattern T=%g, P=%g", t, p)
	}
	if tr == nil || !(tr.Horizon > 0) {
		return ReplayResult{}, errors.New("sim: nil or empty trace")
	}
	c := replayCursor{
		events:     tr.Events,
		hor:        tr.Horizon,
		t:          t,
		checkpoint: m.Res.Checkpoint.At(p),
		recovery:   m.Res.Recovery.At(p),
		verify:     m.Res.Verification.At(p),
		downtime:   m.Res.Downtime,
	}
	for c.pattern() {
		c.res.Patterns++
	}
	c.res.TraceExhausted = true
	return c.res, nil
}
