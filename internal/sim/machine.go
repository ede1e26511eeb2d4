package sim

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"amdahlyd/internal/core"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/rng"
)

// Machine is the machine-level discrete-event simulator: every one of the
// P processors is an independent error source — exponential with rate
// λ_ind by default, or any failures.Distribution renewal process via
// NewMachineDist — each error independently fail-stop with probability f.
// The job runs the VC protocol on top. In the exponential configuration
// it validates the aggregated-rate model used by the analysis and by
// Protocol: the superposition of P per-processor processes is a platform
// process of rate P·λ_ind (Proposition 1.2 of [13]), and the two
// simulators must agree statistically on every observable. In the
// non-exponential configurations it is the pricing oracle of the
// robustness studies — no aggregated fast path exists, because only the
// exponential family is closed under superposition.
//
// Model-faithful details:
//   - silent errors arriving while the job is verifying, checkpointing or
//     recovering are discarded (the paper protects I/O and verification
//     from silent corruption);
//   - no error of any kind strikes during downtime (per-processor error
//     clocks are paused);
//   - a fail-stop error anywhere aborts the pattern: downtime, recovery,
//     full re-execution.
type Machine struct {
	procs     int
	lambdaInd float64
	failFrac  float64
	// invLambdaInd caches 1/λ_ind so every per-processor arrival draw is
	// one log and one multiply (0 when λ_ind = 0, in which case no error
	// events are ever scheduled).
	invLambdaInd float64
	// dist, when non-nil, replaces the exponential law for per-processor
	// inter-arrival times. The exponential fast path keeps dist nil so
	// its draw sequence stays bit-identical to the historical simulator.
	dist failures.Distribution

	t          float64
	checkpoint float64
	recovery   float64
	verify     float64
	downtime   float64
}

// MaxMachineProcs bounds the per-processor event population the
// machine-level simulator is asked to carry. The robustness study and
// the campaign executor report larger allocations (unbounded-allocation
// regimes) unsimulable rather than silently mispriced, and the service
// rejects machine-level requests beyond it.
const MaxMachineProcs = 1 << 16

// NewMachine builds a machine-level simulator for PATTERN(T, P) under the
// model, with exponential per-processor arrivals. P must be an integer
// processor count.
func NewMachine(m core.Model, t float64, procs int) (*Machine, error) {
	return newMachine(m, t, procs, nil)
}

// NewMachineDist builds a machine-level simulator whose per-processor
// inter-arrival times follow the given renewal law instead of the
// model's exponential. The distribution should be calibrated to the
// model's MTBF (mean 1/λ_ind) for the platform pressure to stay
// comparable; the error-pressure guard is recomputed from the law's
// actual mean, so a miscalibrated distribution is rejected rather than
// allowed to swamp the simulator. Passing an Exponential distribution
// is valid but takes the generic renewal path; use NewMachine for the
// bit-pinned exponential fast path.
func NewMachineDist(m core.Model, t float64, procs int, dist failures.Distribution) (*Machine, error) {
	if dist == nil {
		return nil, errors.New("sim: nil distribution (use NewMachine for the exponential fast path)")
	}
	// An invalid (e.g. infinite) mean would zero the effective rate and
	// walk straight past the error-pressure guard.
	if err := failures.ValidateMean(dist); err != nil {
		return nil, err
	}
	return newMachine(m, t, procs, dist)
}

func newMachine(m core.Model, t float64, procs int, dist failures.Distribution) (*Machine, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if !(t > 0) || math.IsInf(t, 0) || procs < 1 {
		return nil, fmt.Errorf("sim: invalid machine pattern T=%g, P=%d", t, procs)
	}
	p := float64(procs)
	lf, ls := m.Rates(p)
	if dist != nil {
		// Guard with the law's true pressure, not the model's λ_ind: an
		// uncalibrated distribution (mean far below the MTBF) would
		// otherwise bypass the error-pressure check and the run could
		// effectively never complete a pattern. The exponential-form
		// estimate is an approximation for non-memoryless laws but the
		// mean arrival rate is the right first-order input.
		lambdaEff := 1 / dist.Mean()
		lf = m.FailStopFrac * lambdaEff * p
		ls = m.SilentFrac * lambdaEff * p
	}
	if expectedIters(lf, ls, t, m.Res.Verification.At(p), m.Res.Checkpoint.At(p),
		m.Res.Recovery.At(p)) > MaxSimIters {
		return nil, ErrErrorPressure
	}
	mach := &Machine{
		procs:      procs,
		lambdaInd:  m.LambdaInd,
		failFrac:   m.FailStopFrac,
		dist:       dist,
		t:          t,
		checkpoint: m.Res.Checkpoint.At(p),
		recovery:   m.Res.Recovery.At(p),
		verify:     m.Res.Verification.At(p),
		downtime:   m.Res.Downtime,
	}
	if mach.lambdaInd > 0 {
		mach.invLambdaInd = 1 / mach.lambdaInd
	}
	return mach, nil
}

// machPhase enumerates the job states of the machine-level state machine.
type machPhase int

const (
	phaseComputing machPhase = iota
	phaseVerifying
	phaseCheckpointing
	phaseRecovering
)

// clock is a pending event of a machine-level run: one processor's next
// error arrival, or the end of the current segment (proc = -1). seq is
// the scheduling order, which breaks exact time ties deterministically.
type clock struct {
	t    float64
	seq  uint64
	proc int
}

// before orders clocks by time, then by scheduling order.
func (c clock) before(d clock) bool {
	return c.t < d.t || (c.t == d.t && c.seq < d.seq)
}

// workspace is the run state of the machine-level simulator. The whole
// event population of a run is one pending arrival per processor plus
// the end of the current segment: arrivals is a binary min-heap of the
// processor clocks, and re-arming a clock overwrites its entry in place,
// so nothing is ever cancelled and memory is O(P). A workspace serves
// one run at a time; SimulateRun draws them from a pool, so a run on a
// reused workspace allocates nothing.
type workspace struct {
	mc  *Machine
	r   *rng.Rand
	st  PatternStats
	now float64
	seq uint64

	phase machPhase
	// silentPending records an undetected corruption of the current
	// pattern's computation.
	silentPending bool
	segment       clock
	arrivals      []clock
}

// run plays the patterns on mc and returns their statistics.
func (w *workspace) run(mc *Machine, patterns int, r *rng.Rand) PatternStats {
	*w = workspace{mc: mc, r: r, arrivals: w.arrivals[:0]}
	if mc.lambdaInd > 0 || mc.dist != nil {
		if cap(w.arrivals) < mc.procs {
			w.arrivals = make([]clock, mc.procs)
		}
		w.arrivals = w.arrivals[:mc.procs]
		w.redraw(0)
	}
	w.startPattern()
	for {
		if len(w.arrivals) > 0 && w.arrivals[0].before(w.segment) {
			w.now = w.arrivals[0].t
			w.arrive()
			continue
		}
		w.now = w.segment.t
		if w.endSegment(patterns) {
			w.st.Elapsed = w.now
			return w.st
		}
	}
}

// schedule returns a clock delay seconds from now, next in scheduling
// order.
func (w *workspace) schedule(proc int, delay float64) clock {
	w.seq++
	return clock{t: w.now + delay, seq: w.seq, proc: proc}
}

// draw samples the next per-processor gap: exponential on the fast path
// (one log, one multiply — the historical simulator's exact draw), the
// renewal law otherwise.
func (w *workspace) draw() float64 {
	if w.mc.dist != nil {
		return w.mc.dist.Sample(w.r)
	}
	return w.r.ExpInv(w.mc.invLambdaInd)
}

// redraw arms every processor at pause plus a fresh gap, drawn in
// processor order, and rebuilds the heap.
func (w *workspace) redraw(pause float64) {
	for i := range w.arrivals {
		w.arrivals[i] = w.schedule(i, pause+w.draw())
	}
	w.heapify()
}

// arrive handles the error at the top of the heap.
func (w *workspace) arrive() {
	isFailStop := w.r.Float64() < w.mc.failFrac
	// Re-arm this processor's clock first: the next renewal interval
	// starts at this arrival.
	w.arrivals[0] = w.schedule(w.arrivals[0].proc, w.draw())
	w.siftDown(0)
	if isFailStop {
		w.failStop()
	} else if w.phase == phaseComputing {
		// Silent corruption of computation; detected later by the
		// verification.
		w.silentPending = true
	}
	// Silent errors during V/C/R are discarded: those phases are
	// protected (Section II, resilience model).
}

// failStop aborts the pattern: downtime, then recovery. No error strikes
// during downtime, so every processor clock restarts past it. For the
// memoryless exponential, a fresh draw after the pause is statistically
// identical to pausing, and it is the historical draw sequence. A
// renewal process remembers its age, so its pending arrival is shifted
// by the pause instead, keeping the processor-order tie rule.
func (w *workspace) failStop() {
	w.st.FailStops++
	pause := w.mc.downtime
	if w.mc.dist == nil {
		w.redraw(pause)
	} else {
		base := w.seq
		for i := range w.arrivals {
			c := &w.arrivals[i]
			// pause + (t − now), never (pause + t) − now: the rounding
			// of this sum is part of the pinned results.
			c.t = w.now + (pause + (c.t - w.now))
			c.seq = base + uint64(c.proc) + 1
		}
		w.seq += uint64(len(w.arrivals))
		w.heapify()
	}
	w.st.Recoveries++
	w.enter(phaseRecovering, pause+w.mc.recovery)
}

// endSegment advances the VC protocol at the end of the current segment
// and reports whether the last pattern has completed.
func (w *workspace) endSegment(patterns int) bool {
	switch w.phase {
	case phaseComputing:
		w.enter(phaseVerifying, w.mc.verify)
	case phaseVerifying:
		if w.silentPending {
			w.st.SilentDetections++
			w.st.Recoveries++
			w.enter(phaseRecovering, w.mc.recovery)
		} else {
			w.enter(phaseCheckpointing, w.mc.checkpoint)
		}
	case phaseCheckpointing:
		w.st.Patterns++
		if w.st.Patterns == int64(patterns) {
			return true
		}
		w.startPattern()
	case phaseRecovering:
		w.startPattern()
	}
	return false
}

func (w *workspace) startPattern() {
	w.silentPending = false
	w.enter(phaseComputing, w.mc.t)
}

// enter starts a segment of the given phase and length.
func (w *workspace) enter(ph machPhase, length float64) {
	w.phase = ph
	w.segment = w.schedule(-1, length)
}

// siftDown restores the heap order below position i.
func (w *workspace) siftDown(i int) {
	h := w.arrivals
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (w *workspace) heapify() {
	for i := len(w.arrivals)/2 - 1; i >= 0; i-- {
		w.siftDown(i)
	}
}

// workspaces recycles run state across SimulateRun calls: a Monte-Carlo
// campaign reuses one workspace per worker, so every run after the first
// is allocation-free.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// SimulateRun plays the requested number of patterns and returns the
// same statistics as the pattern-level simulator. The draw sequence and
// results are bit-identical to the historical closure-based simulator
// (pinned by the machine golden tests).
func (mc *Machine) SimulateRun(patterns int, r *rng.Rand) (PatternStats, error) {
	if patterns < 1 {
		return PatternStats{}, errors.New("sim: need at least one pattern")
	}
	if r == nil {
		return PatternStats{}, errors.New("sim: nil rng")
	}
	w := workspaces.Get().(*workspace)
	st := w.run(mc, patterns, r)
	// Do not pin the machine or the rng stream alive between runs.
	w.mc, w.r = nil, nil
	workspaces.Put(w)
	return st, nil
}
