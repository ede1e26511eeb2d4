// Package core implements the paper's primary contribution: the exact
// expected execution time of a periodic verified-checkpointing pattern
// PATTERN(T, P) under fail-stop and silent errors (Proposition 1), its
// first-order expansion, the optimal checkpointing period for a fixed
// processor count (Theorem 1), the optimal pattern parameters for the
// linear and constant cost classes (Theorems 2 and 3), the overhead
// expressions of the remaining cases (Sections III-D.3 and III-D.4), and
// the validity bounds of the first-order approximation (Section III-B).
//
// # The VC protocol
//
// A pattern is T seconds of useful work followed by a verification V_P and
// a checkpoint C_P. Fail-stop errors (rate λf = f·λ_ind·P) interrupt
// execution anywhere, including inside V, C and R; after a downtime D and
// a recovery R_P the whole pattern restarts. Silent errors (rate
// λs = s·λ_ind·P) strike only during computation and are caught by the
// verification at the end of the pattern, triggering a recovery and a
// re-execution. A silent error followed by a fail-stop error inside the
// same pattern is masked by the rollback.
//
// # A note on Proposition 1
//
// The paper's displayed intermediate formula for E(T+V_P) carries a
// typographical slip (a spurious e^{λs(T+V)}·(T+V) term: the expected-lost
// -time algebra cancels it), but its final Equation (2) is correct; the
// implementation below was re-derived from the renewal equations and
// matches Equation (2) exactly, and the Monte-Carlo simulator in
// internal/sim validates it to within confidence intervals.
package core

import (
	"errors"
	"fmt"
	"math"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/speedup"
)

// Model binds everything the formulas need: the error environment of a
// platform, a calibrated resilience-cost model and a speedup profile.
type Model struct {
	// LambdaInd is the individual per-processor error rate (both error
	// sources combined), 1/seconds.
	LambdaInd float64
	// FailStopFrac is f, the fraction of errors that are fail-stop.
	FailStopFrac float64
	// SilentFrac is s = 1−f, the fraction of errors that are silent.
	SilentFrac float64
	// Res carries C_P, R_P, V_P and the downtime D.
	Res costmodel.Resilience
	// Profile is the application speedup profile (Amdahl in the paper).
	Profile speedup.Profile
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	if !(m.LambdaInd >= 0) || math.IsInf(m.LambdaInd, 0) {
		return fmt.Errorf("core: λ_ind = %g must be finite and non-negative", m.LambdaInd)
	}
	if !(m.FailStopFrac >= 0 && m.FailStopFrac <= 1) {
		return fmt.Errorf("core: f = %g outside [0,1]", m.FailStopFrac)
	}
	if !(m.SilentFrac >= 0 && m.SilentFrac <= 1) {
		return fmt.Errorf("core: s = %g outside [0,1]", m.SilentFrac)
	}
	if math.Abs(m.FailStopFrac+m.SilentFrac-1) > 1e-3 {
		return fmt.Errorf("core: f + s = %g, want 1", m.FailStopFrac+m.SilentFrac)
	}
	if m.Profile == nil {
		return errors.New("core: nil speedup profile")
	}
	return m.Res.Validate()
}

// Rates returns the platform-level fail-stop and silent rates λf_P and
// λs_P for P processors.
func (m Model) Rates(p float64) (lambdaF, lambdaS float64) {
	if p < 1 {
		p = 1
	}
	return m.FailStopFrac * m.LambdaInd * p, m.SilentFrac * m.LambdaInd * p
}

// EffectiveRate returns λf_P/2 + λs_P, the combined rate constant that
// drives every optimal-period formula: fail-stop errors lose half a period
// on average while silent errors always lose the full period.
func (m Model) EffectiveRate(p float64) float64 {
	lf, ls := m.Rates(p)
	return lf/2 + ls
}

// ExactPatternTime evaluates Proposition 1 (Equation (2)) extended to an
// arbitrary recovery cost R_P:
//
//	E = (1/λf + D) · ( e^{λf·C}·(1 − e^{λs·T})
//	                 + e^{λf·R}·(e^{λf·(C+T+V)+λs·T} − 1) )
//
// with the analytic λf → 0 limit
//
//	E = C + (T+V)·e^{λs·T} + (e^{λs·T} − 1)·R
//
// used when the fail-stop exponents underflow first-order resolution.
// The result is +Inf when the exponentials overflow, which makes the
// function directly usable as a minimization objective.
//
// This is a thin wrapper over Freeze: hot loops that hold P fixed should
// call Freeze(p) once and evaluate Frozen.PatternTime per period instead.
func (m Model) ExactPatternTime(t, p float64) float64 {
	if t <= 0 || p < 1 {
		return math.Inf(1)
	}
	f := m.Freeze(p)
	return f.PatternTime(t)
}

// Overhead returns the expected execution overhead of the pattern,
// H(T, P) = E(PATTERN)/(T·S(P)) = (E/T)·H(P): the expected seconds of
// wall-clock time per second of sequential work. Minimizing it minimizes
// the expected application makespan.
func (m Model) Overhead(t, p float64) float64 {
	if t <= 0 || p < 1 {
		return math.Inf(1)
	}
	f := m.Freeze(p)
	return f.Overhead(t)
}

// ErrorFreeOverhead returns H(T, P) with both error rates forced to zero:
// the pattern still pays V_P + C_P per period. It prices V_P + C_P through
// CombinedVC, not through Freeze, so it is the independent oracle that
// TestFrozenMatchesModel holds the Frozen form, the one /v1/evaluate
// reports, to.
func (m Model) ErrorFreeOverhead(t, p float64) float64 {
	if t <= 0 {
		return math.Inf(1)
	}
	cv := m.Res.CombinedVC(p)
	return (t + cv) / t * m.Profile.Overhead(p)
}

// ExpectedMakespan approximates the expected total execution time of an
// application with wTotal seconds of sequential work, split into periodic
// patterns: E(W_final) ≈ H(T, P) · W_total (Section II, optimization
// objective).
func (m Model) ExpectedMakespan(wTotal, t, p float64) float64 {
	return m.Overhead(t, p) * wTotal
}
