package optimize

import (
	"math"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
)

// SweepOptions tunes the warm-start batch solver. The zero value selects
// defaults suitable for every sweep in the paper's figures.
type SweepOptions struct {
	// PatternOptions bounds the search box exactly as for OptimalPattern;
	// a warm solve never leaves it, and every fallback runs inside it.
	PatternOptions
	// Cold disables warm-starting entirely: every cell runs the reference
	// OptimalPattern grid scan (a /v1/sweep request's "cold", a campaign
	// manifest's cold_solve; results are then bit-identical to per-cell
	// OptimalPattern calls).
	Cold bool
}

// warmPoints is the grid of a single-level warm cell, whose bracket
// reaches one cold-grid step (gridStep, a factor 10^(13/15) ≈ 7.4) each
// side of the previous optimum: the bracket a cold scan polishes in,
// centred on that optimum, so a warm cell is the previous optimum, its
// two neighbours and one seeded polish. The cold grid's spacing
// localizes every single-level optimum (DESIGN.md, "Ablations pinned by
// benchmarks"), and P* moves by at most a few × between adjacent cells
// of Figs. 4–7; a larger jump puts the optimum on the bracket's edge,
// and the cell falls back.
const warmPoints = 3

// SweepStats counts how a solver spent its cells: the measurable record
// of what warm-starting bought a sweep.
type SweepStats struct {
	// WarmSolves counts cells solved inside the warm bracket.
	WarmSolves int
	// ColdSolves counts cells solved by a full-box scan (first cell of a
	// chain, an objective-class change, or Cold mode).
	ColdSolves int
	// Fallbacks counts warm attempts that were rejected (optimum pinned
	// to a warm bracket edge, or an infeasible bracket) and re-solved on
	// the full box; they are also counted in ColdSolves.
	Fallbacks int
	// Evals totals the Evals of every accepted cell result.
	Evals int
}

// WarmChain is the warm-start state of one sweep chain and its
// bracket/fallback discipline, shared by SweepSolver and the two-level
// solver in internal/multilevel. The first cell, every cell of a cold
// chain and every cell the caller marks as a restart is solved on the
// full box. Any other cell searches P in a bracket a chain-specific
// factor around the previous optimum (up to PMax when that optimum sat
// at the bound) and falls back to the full box when the bracket is
// empty, the warm solve fails, or its optimum is pinned against a
// bracket edge that is not a global bound — the axis jumped further than
// the bracket, so the narrow solve localized the wrong basin.
// Warm-starting is an accelerator, never a different answer beyond the
// refinement tolerance.
type WarmChain struct {
	pMin, pMax float64
	gridP      int
	warmFactor float64
	warmGrid   int
	cold       bool

	seeded  bool
	p       float64
	atBound bool
	stats   SweepStats
}

// NewWarmChain starts a chain over the processor box [pMin, pMax] whose
// full-box solves run the caller's gridP-point scan: every cell of a cold
// chain, and the first cell and every restart of a warm one. A warm cell
// searches [P/warmFactor, P·warmFactor] around the previous optimum P on
// warmGrid points, clipped to the box.
func NewWarmChain(pMin, pMax float64, gridP int, warmFactor float64, warmGrid int, cold bool) WarmChain {
	return WarmChain{pMin: pMin, pMax: pMax, gridP: gridP, warmFactor: warmFactor, warmGrid: warmGrid, cold: cold}
}

// Stats returns the chain's solve counters so far.
func (c *WarmChain) Stats() SweepStats { return c.stats }

// Observe seeds the next cell's bracket with an optimum at P = p,
// including one the chain did not solve itself (a cache hit for the
// cell), so the chain stays warm across it.
func (c *WarmChain) Observe(p float64, atBound bool) {
	c.seeded, c.p, c.atBound = true, p, atBound
}

// Solve solves one cell through solve, which runs the protocol's outer P
// search over [lo, hi] on a gridP-point log-grid and reports the
// optimum's P, whether it stopped at the allocation bound, and its
// evaluation count. restart forces the full box. warm reports that the
// last solve call, whose result the caller keeps, was the accepted warm
// attempt.
func (c *WarmChain) Solve(restart bool, solve func(lo, hi float64, gridP int) (p float64, atBound bool, evals int, err error)) (warm bool, err error) {
	if c.seeded && !c.cold && !restart {
		lo := math.Max(c.pMin, c.p/c.warmFactor)
		hi := math.Min(c.pMax, c.p*c.warmFactor)
		if c.atBound {
			hi = c.pMax
		}
		if hi > lo {
			// An infeasible or unsolvable warm bracket is a fallback
			// trigger, not a sweep failure: the full box may still
			// contain an optimum.
			p, atBound, evals, err := solve(lo, hi, c.warmGrid)
			if err == nil && !c.atWarmEdge(p, lo, hi) {
				c.stats.WarmSolves++
				c.stats.Evals += evals
				c.Observe(p, atBound)
				return true, nil
			}
		}
		c.stats.Fallbacks++
	}
	c.stats.ColdSolves++
	p, atBound, evals, err := solve(c.pMin, c.pMax, c.gridP)
	if err != nil {
		return false, err
	}
	c.stats.Evals += evals
	c.Observe(p, atBound)
	return false, nil
}

// atWarmEdge reports a warm optimum within 2% (in log P) of a bracket
// edge that is not also a global bound; global bounds are legitimate
// resting points.
func (c *WarmChain) atWarmEdge(p, lo, hi float64) bool {
	const edgeMargin = 0.02
	uLo, uHi, uX := math.Log(lo), math.Log(hi), math.Log(p)
	margin := edgeMargin * (uHi - uLo)
	return (uX-uLo < margin && lo > c.pMin*(1+1e-12)) ||
		(uHi-uX < margin && hi < c.pMax*(1-1e-12))
}

// SweepSolver solves a sequence of related pattern optimizations — the
// cells of one figure axis, ordered so that (T*, P*) varies smoothly —
// by warm-starting each cell from the previous optimum.
//
// The paper's sweep figures are continuous curves: along any one axis
// (α, λ_ind, D, platform) the optimum moves by at most a few × per cell.
// A warm cell therefore searches one cold-grid step each side of the
// previous P* (WarmChain) on 3 points, the previous optimum and its two
// neighbours, and polishes from their parabola with bounded Brent; the
// inner u = log T minimization is the cold path's own (minimizeT). A
// cell whose objective class changed since the previous cell restarts
// on the full cold box, as does any warm solve WarmChain rejects (the
// sweep property tests pin warm against per-cell OptimalPattern within
// bounds derived from the polish tolerance).
//
// A solver is stateful (the chain state) and must not be shared between
// goroutines; run one solver per chain.
type SweepSolver struct {
	opts      SweepOptions
	chain     WarmChain
	prevClass costmodel.Class
}

// NewSweepSolver builds a solver for one chain of related models.
func NewSweepSolver(opts SweepOptions) *SweepSolver {
	opts.PatternOptions = opts.PatternOptions.withDefaults()
	return &SweepSolver{
		opts: opts,
		chain: NewWarmChain(opts.PMin, opts.PMax, gridPoints(opts.PMin, opts.PMax),
			math.Exp(gridStep), warmPoints, opts.Cold),
	}
}

// Stats returns the per-chain solve counters accumulated so far.
func (s *SweepSolver) Stats() SweepStats { return s.chain.Stats() }

// Observe primes the warm-start state from an externally obtained
// optimum for m (e.g. a cache hit for the cell), so the chain stays warm
// across cells the solver did not compute itself.
func (s *SweepSolver) Observe(m core.Model, res PatternResult) {
	s.chain.Observe(res.P, res.AtPBound)
	s.prevClass = m.Res.Classify().Class
}

// Solve returns the numerical optimum for the next cell of the chain.
// The first cell (and any cell whose warm solve is rejected) pays a full
// cold scan; subsequent cells typically cost a fraction of one. Every
// full-box solve is OptimalPattern's scan, so a Cold-mode cell and a
// chain restart are bit-identical to a per-cell call.
func (s *SweepSolver) Solve(m core.Model) (PatternResult, error) {
	// Hold warm mode to the same option contract as OptimalPattern: a
	// bad search box must fail loudly here, not surface as an
	// out-of-bounds optimum or a misleading infeasibility error.
	if err := s.opts.validate(); err != nil {
		return PatternResult{}, err
	}
	if err := m.Validate(); err != nil {
		return PatternResult{}, err
	}
	class := m.Res.Classify().Class
	var res PatternResult
	warm, err := s.chain.Solve(class != s.prevClass, func(lo, hi float64, gridP int) (float64, bool, int, error) {
		var err error
		res, err = solvePattern(m, s.opts.PatternOptions, lo, hi, gridP)
		return res.P, res.AtPBound, res.Evals, err
	})
	if err != nil {
		return PatternResult{}, err
	}
	s.prevClass = class
	res.Warm = warm
	return res, nil
}
