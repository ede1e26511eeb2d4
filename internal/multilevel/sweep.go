package multilevel

import (
	"amdahlyd/internal/core"
	"amdahlyd/internal/optimize"
)

// SweepOptions tunes the warm-start batch solver for sweep-shaped
// two-level work (many joint optimizations along a smooth axis). The
// zero value selects defaults consistent with optimize.SweepOptions.
type SweepOptions struct {
	// PatternOptions bounds the search box exactly as for OptimalPattern;
	// a warm solve never leaves it, and every fallback runs inside it.
	PatternOptions
	// Cold disables warm-starting entirely: every cell runs the
	// reference OptimalPattern scan and is bit-identical to a per-cell
	// call.
	Cold bool
}

// SweepSolver solves a sequence of related two-level optimizations — the
// cells of one axis (in-memory fraction, λ, α, C1…), ordered so that
// (T*, K*, P*) varies smoothly — by warm-starting each cell's outer P
// search from the previous optimum, with the same bracket-narrowing and
// full-box-fallback discipline as optimize.SweepSolver (the shared
// optimize.WarmChain). Warm-starting is an accelerator, never a
// different answer beyond the refinement tolerance (pinned by the
// warm-vs-cold property tests).
//
// The two-level first-order objective has a single algebraic class (no
// counterpart of costmodel.Classify), so the class-change restart of
// the single-level solver has no analogue here.
//
// A solver is stateful and must not be shared between goroutines; run
// one solver per chain.
type SweepSolver struct {
	opts  PatternOptions
	chain optimize.WarmChain
}

// NewSweepSolver builds a solver for one chain of related cells.
func NewSweepSolver(opts SweepOptions) *SweepSolver {
	po := opts.PatternOptions.withDefaults()
	return &SweepSolver{
		opts:  po,
		chain: optimize.NewWarmChain(po.PMin, po.PMax, po.GridP, opts.Cold),
	}
}

// Stats returns the per-chain solve counters accumulated so far; Evals
// counts inner (T, K) solves.
func (s *SweepSolver) Stats() optimize.SweepStats { return s.chain.Stats() }

// Observe primes the warm-start state from an externally obtained
// optimum (e.g. a cache hit for the cell), so the chain stays warm
// across cells the solver did not compute itself.
func (s *SweepSolver) Observe(res PatternResult) {
	s.chain.Observe(res.P, res.AtPBound)
}

// Solve returns the joint (T, K, P) optimum for the next cell of the
// chain. The first cell (and any cell whose warm solve is rejected)
// pays a full-box scan; subsequent cells search only the narrow bracket
// around the previous P*. In Cold mode every cell is bit-identical to a
// per-cell OptimalPattern call (same grid, same refinement); a chain
// restart in warm mode uses the same reference scan at a coarser outer
// grid.
func (s *SweepSolver) Solve(m core.Model, costsFor CostsFunc) (PatternResult, error) {
	if err := s.opts.validate(); err != nil {
		return PatternResult{}, err
	}
	if err := validateJoint(m); err != nil {
		return PatternResult{}, err
	}
	if costsFor == nil {
		return PatternResult{}, errNilCosts
	}
	var res PatternResult
	warm, err := s.chain.Solve(false, func(lo, hi float64, gridP int, warm bool) (float64, bool, int, error) {
		var err error
		res, err = scanBox(m, costsFor, s.opts, lo, hi, gridP, warm)
		return res.P, res.AtPBound, res.Evals, err
	})
	if err != nil {
		return PatternResult{}, err
	}
	res.Warm = warm
	return res, nil
}

// BatchOptimalPattern solves every cell of an ordered sweep axis with
// one warm-start chain: models[i] is paired with the derived in-memory
// fraction frac (the common axis shape — the models vary, the fraction
// is the protocol choice). It is the batch counterpart of per-cell
// OptimalPattern calls: same answers within the refinement tolerance at
// a fraction of the inner solves.
func BatchOptimalPattern(models []core.Model, frac float64, opts SweepOptions) ([]PatternResult, error) {
	s := NewSweepSolver(opts)
	out := make([]PatternResult, len(models))
	for i, m := range models {
		res, err := s.Solve(m, InMemoryFraction(m, frac))
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}
