package sim

import (
	"errors"
	"fmt"
	"math"

	"amdahlyd/internal/core"
	"amdahlyd/internal/rng"
)

// Protocol is the pattern-level simulator of the VC protocol: it plays
// the exact renewal process of Fig. 1 and Equations (3)–(4), drawing
// fail-stop arrivals from Exp(λf_P) and silent strikes with probability
// 1 − e^{−λs_P·T} per computation segment.
type Protocol struct {
	// T and P fix the pattern.
	T, P float64
	// Durations derived from the model at P.
	checkpoint float64
	recovery   float64
	verify     float64
	downtime   float64
	lambdaF    float64
	lambdaS    float64
	// Sampling constants hoisted out of the per-pattern loop: the
	// inversion constant 1/λf (exponential draws become one log and one
	// multiply) and the per-segment silent-strike probability
	// 1 − e^{−λs·T}, which is pattern-invariant.
	invLambdaF float64
	pSilent    float64
}

// ErrErrorPressure is returned when the requested pattern sits so deep in
// the failure-dominated regime that simulating it cannot terminate in
// practical time: the expected number of simulator iterations per pattern
// is e^{λf(T+V+C)+λsT} attempts, each failed attempt triggering a
// geometric cascade of ~e^{λf·R} recovery retries. The exact formula
// still prices such patterns (astronomically), so callers fall back to
// the model.
var ErrErrorPressure = errors.New(
	"sim: error pressure too high to simulate (expected iterations per pattern exceed the budget)")

// MaxSimIters bounds the expected simulator iterations per pattern, for
// this package's simulators and the two-level one in internal/multilevel.
// Every experiment in the paper stays below ~10² even at the extreme
// points of Fig. 6; 1e4 leaves two orders of headroom while keeping a
// 500×500 campaign under a minute.
const MaxSimIters = 1e4

// expectedIters estimates simulator iterations per pattern.
func expectedIters(lf, ls, t, v, c, r float64) float64 {
	attempts := math.Exp(lf*(t+v+c) + ls*t)
	recoveryTries := math.Exp(lf * r)
	return attempts * (1 + recoveryTries)
}

// NewProtocol prepares a simulator for PATTERN(T, P) under the model.
func NewProtocol(m core.Model, t, p float64) (*Protocol, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if !(p >= 1) || math.IsInf(p, 0) {
		return nil, fmt.Errorf("sim: invalid pattern T=%g, P=%g", t, p)
	}
	fz := m.Freeze(p)
	return NewProtocolFrozen(&fz, t)
}

// NewProtocolFrozen prepares a simulator for PATTERN(T, fz.P) from a
// compiled evaluator, skipping model validation (the caller vouches for
// the Frozen). This is the constructor the Monte-Carlo runner uses so the
// rates and resilience costs are derived exactly once per (T, P).
func NewProtocolFrozen(fz *core.Frozen, t float64) (*Protocol, error) {
	if !(t > 0) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("sim: invalid pattern T=%g, P=%g", t, fz.P)
	}
	if expectedIters(fz.LambdaF, fz.LambdaS, t, fz.V, fz.C, fz.R) > MaxSimIters {
		return nil, ErrErrorPressure
	}
	pr := &Protocol{
		T: t, P: fz.P,
		checkpoint: fz.C,
		recovery:   fz.R,
		verify:     fz.V,
		downtime:   fz.D,
		lambdaF:    fz.LambdaF,
		lambdaS:    fz.LambdaS,
	}
	if pr.lambdaF > 0 {
		pr.invLambdaF = 1 / pr.lambdaF
	}
	if pr.lambdaS > 0 {
		pr.pSilent = -math.Expm1(-pr.lambdaS * pr.T)
	}
	return pr, nil
}

// PatternStats aggregates event counts over simulated patterns.
type PatternStats struct {
	// Patterns is the number of successfully completed patterns.
	Patterns int64
	// Elapsed is total simulated wall-clock time.
	Elapsed float64
	// FailStops counts fail-stop errors (including during C and R).
	FailStops int64
	// SilentDetections counts silent errors caught by verifications.
	SilentDetections int64
	// Recoveries counts recovery executions (attempts, incl. failed).
	Recoveries int64
}

// failStopIn samples whether a fail-stop error strikes within a window of
// the given length, returning the strike offset.
func (pr *Protocol) failStopIn(window float64, r *rng.Rand) (float64, bool) {
	if pr.lambdaF == 0 {
		return 0, false
	}
	// Inversion sampling with the precomputed 1/λf: one log, one multiply.
	t := r.ExpInv(pr.invLambdaF)
	if t < window {
		return t, true
	}
	return 0, false
}

// silentStrikes samples whether at least one silent error strikes during
// a computation of length T.
func (pr *Protocol) silentStrikes(r *rng.Rand) bool {
	if pr.lambdaS == 0 {
		return false
	}
	return r.Float64() < pr.pSilent
}

// simulateRecovery plays recoveries until one completes, accumulating
// elapsed time into st. A fail-stop during a recovery costs the lost
// time, a downtime, and a retry (Section III-A, derivation of E(R)).
func (pr *Protocol) simulateRecovery(r *rng.Rand, st *PatternStats) {
	for {
		st.Recoveries++
		if lost, struck := pr.failStopIn(pr.recovery, r); struck {
			st.FailStops++
			st.Elapsed += lost + pr.downtime
			continue
		}
		st.Elapsed += pr.recovery
		return
	}
}

// SimulatePattern plays one pattern to successful completion,
// accumulating into st.
func (pr *Protocol) SimulatePattern(r *rng.Rand, st *PatternStats) {
	tv := pr.T + pr.verify
	for {
		// Phase 1: execute T + V until no fail-stop interrupts it and
		// the verification finds no silent corruption.
		if lost, struck := pr.failStopIn(tv, r); struck {
			// Fail-stop masks any silent error in the same attempt.
			st.FailStops++
			st.Elapsed += lost + pr.downtime
			pr.simulateRecovery(r, st)
			continue
		}
		if pr.silentStrikes(r) {
			// Detected by the verification at the end of the segment.
			st.SilentDetections++
			st.Elapsed += tv
			pr.simulateRecovery(r, st)
			continue
		}
		st.Elapsed += tv

		// Phase 2: checkpoint; a fail-stop here forces a downtime, a
		// recovery and a re-execution of the whole pattern.
		if lost, struck := pr.failStopIn(pr.checkpoint, r); struck {
			st.FailStops++
			st.Elapsed += lost + pr.downtime
			pr.simulateRecovery(r, st)
			continue
		}
		st.Elapsed += pr.checkpoint
		st.Patterns++
		return
	}
}

// SimulateRun plays patterns consecutive patterns and returns the stats.
func (pr *Protocol) SimulateRun(patterns int, r *rng.Rand) (PatternStats, error) {
	if patterns < 1 {
		return PatternStats{}, errors.New("sim: need at least one pattern")
	}
	if r == nil {
		return PatternStats{}, errors.New("sim: nil rng")
	}
	var st PatternStats
	for i := 0; i < patterns; i++ {
		pr.SimulatePattern(r, &st)
	}
	return st, nil
}

// MeanPatternTime returns the empirical mean time per completed pattern.
func (st PatternStats) MeanPatternTime() float64 {
	if st.Patterns == 0 {
		return math.NaN()
	}
	return st.Elapsed / float64(st.Patterns)
}

// Overhead converts a run's elapsed time into the paper's expected
// execution overhead H(T, P) = E/T · H(P), given the error-free overhead
// hOfP = H(P) of the profile at the simulated processor count.
func (st PatternStats) Overhead(t, hOfP float64) float64 {
	if st.Patterns == 0 || !(t > 0) {
		return math.NaN()
	}
	return st.MeanPatternTime() / t * hOfP
}
