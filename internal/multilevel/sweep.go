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

const (
	// warmBracketFactor is the half-width of a two-level warm bracket:
	// cell i searches P in [P*_{i-1}/32, P*_{i-1}·32]. The single-level
	// chain's one-grid-step bracket is too narrow here: g(P) is a
	// minimum over an integer K with kinks where K switches, and its
	// cold scan keeps a dense grid for the same reason.
	warmBracketFactor = 32
	// warmGrid is the outer P grid resolution inside a warm bracket: it
	// only needs to localize the minimum for the Brent polish, not
	// survive a cold multi-decade scan.
	warmGrid = 10
)

// NewSweepSolver builds a solver for one chain of related cells.
func NewSweepSolver(opts SweepOptions) *SweepSolver {
	po := opts.PatternOptions.withDefaults()
	return &SweepSolver{
		opts:  po,
		chain: optimize.NewWarmChain(po.PMin, po.PMax, fullBoxGrid, warmBracketFactor, warmGrid, opts.Cold),
	}
}

// Observe primes the warm-start state from an externally obtained
// optimum (e.g. a cache hit for the cell), so the chain stays warm
// across cells the solver did not compute itself.
func (s *SweepSolver) Observe(res PatternResult) {
	s.chain.Observe(res.P, res.AtPBound)
}

// Solve returns the joint (T, K, P) optimum for the next cell of the
// chain. The first cell (and any cell whose warm solve is rejected)
// pays a full-box scan; subsequent cells search only the narrow bracket
// around the previous P*. A Cold-mode cell and a warm chain's restart
// run OptimalPattern's full-box scan, bit-identical to a per-cell call.
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
	warm, err := s.chain.Solve(false, func(lo, hi float64, gridP int) (float64, bool, int, error) {
		var err error
		res, err = scanBox(m, costsFor, s.opts, lo, hi, gridP)
		return res.P, res.AtPBound, res.Evals, err
	})
	if err != nil {
		return PatternResult{}, err
	}
	res.Warm = warm
	return res, nil
}
