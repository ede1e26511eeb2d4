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

// replayCursor walks a trace in "exposure time": the trace clock counts
// only operational (error-exposed) time, so a downtime consumes wall
// clock but zero trace time — exactly the "no error strikes during
// downtime" rule. By memorylessness this matches the Monte-Carlo
// simulator's fresh-draw-after-downtime behaviour in distribution.
type replayCursor struct {
	rp  *failures.Replay
	hor float64
}

// nextIn reports the first event within the exposure window
// [from, from+length) of the given phase, honouring the protection
// rules: silent events outside computation phases are consumed and
// ignored.
func (c *replayCursor) nextIn(from, length float64, computation bool) (failures.Event, float64, bool) {
	for {
		ev, ok := c.rp.Peek()
		if !ok {
			return failures.Event{}, 0, false
		}
		if ev.Time >= from+length {
			return failures.Event{}, 0, false
		}
		c.rp.Next()
		if ev.Kind == failures.Silent && !computation {
			continue // protected phase: silent arrival discarded
		}
		return ev, ev.Time - from, true
	}
}

// covers reports whether the trace horizon still covers a window ending
// at the given exposure time.
func (c *replayCursor) covers(until float64) bool {
	return until <= c.hor
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

	checkpoint := m.Res.Checkpoint.At(p)
	recovery := m.Res.Recovery.At(p)
	verify := m.Res.Verification.At(p)
	downtime := m.Res.Downtime

	cur := &replayCursor{rp: failures.NewReplay(tr), hor: tr.Horizon}
	var res ReplayResult
	now := 0.0 // exposure time (wall-clock minus downtimes)

	// doRecovery plays recoveries until one completes; returns false if
	// the trace ran out.
	doRecovery := func() bool {
		for {
			if !cur.covers(now + recovery) {
				return false
			}
			res.Recoveries++
			if ev, off, struck := cur.nextIn(now, recovery, false); struck {
				// Only fail-stop events reach here (silent filtered).
				_ = ev
				res.FailStops++
				now += off
				res.Elapsed += off + downtime
				continue
			}
			now += recovery
			res.Elapsed += recovery
			return true
		}
	}

	for {
		// Phase 1: T (computation) then V (protected). Walk them as two
		// windows so silent protection is honoured per phase.
		if !cur.covers(now + t + verify + checkpoint) {
			res.TraceExhausted = true
			return res, nil
		}
		silentPending := false
		restart := false

		// Computation window.
		for {
			ev, off, struck := cur.nextIn(now, t, true)
			if !struck {
				break
			}
			if ev.Kind == failures.FailStop {
				res.FailStops++
				now += off
				res.Elapsed += off + downtime
				if !doRecovery() {
					res.TraceExhausted = true
					return res, nil
				}
				restart = true
				break
			}
			// Silent corruption: remember it, keep computing. The
			// cursor has consumed the event; remaining events in the
			// window are still visible.
			silentPending = true
		}
		if restart {
			continue
		}
		now += t
		res.Elapsed += t

		// Verification window (protected from silent errors).
		if _, off, struck := cur.nextIn(now, verify, false); struck {
			res.FailStops++
			now += off
			res.Elapsed += off + downtime
			if !doRecovery() {
				res.TraceExhausted = true
				return res, nil
			}
			continue
		}
		now += verify
		res.Elapsed += verify

		if silentPending {
			// Verification detects the corruption: recover, retry.
			res.SilentDetections++
			if !doRecovery() {
				res.TraceExhausted = true
				return res, nil
			}
			continue
		}

		// Checkpoint window (protected).
		if _, off, struck := cur.nextIn(now, checkpoint, false); struck {
			res.FailStops++
			now += off
			res.Elapsed += off + downtime
			if !doRecovery() {
				res.TraceExhausted = true
				return res, nil
			}
			continue
		}
		now += checkpoint
		res.Elapsed += checkpoint
		res.Patterns++
	}
}
