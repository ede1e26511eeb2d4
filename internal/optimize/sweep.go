package optimize

import (
	"errors"
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
	// OptimalPattern grid scan (the -warm=false escape hatch; results are
	// then bit-identical to per-cell OptimalPattern calls).
	Cold bool
}

const (
	// warmBracketFactor is the half-width of the warm bracket: cell i
	// searches P in [P*_{i-1}/32, P*_{i-1}·32], generous for every
	// per-cell drift in Figs. 4–7, where P* moves by at most a few ×
	// between adjacent sweep coordinates.
	warmBracketFactor = 32
	// warmGrid is the grid resolution inside a warm bracket, for the
	// outer P and the inner T search alike: it only needs to localize
	// the minimum for the Brent polish, not survive a cold multi-decade
	// scan.
	warmGrid = 10
	// coldScanGridP is the outer grid of a chain-restart scan: coarser
	// than OptimalPattern's 96 (the Brent polish converges from a coarser
	// localization at equal tolerance), still dense enough to not skip
	// the feasible band of any Table II/III configuration (~2 points per
	// decade over the default 13-decade box).
	coldScanGridP = 64
)

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
// full box. Any other cell searches P in a bracket a factor 32 around the
// previous optimum (up to PMax when that optimum sat at the bound) and
// falls back to the full box when the bracket is empty, the warm solve
// fails, or its optimum is pinned against a bracket edge that is not a
// global bound — the axis jumped further than the bracket, so the narrow
// solve localized the wrong basin. Warm-starting is an accelerator, never
// a different answer beyond the refinement tolerance.
type WarmChain struct {
	pMin, pMax float64
	gridP      int
	cold       bool

	seeded  bool
	p       float64
	atBound bool
	stats   SweepStats
}

// NewWarmChain starts a chain over the processor box [pMin, pMax] whose
// reference full-box scan uses a gridP-point outer grid. A cold chain
// solves every cell with that scan; a warm chain's restarts use at most
// 64 points.
func NewWarmChain(pMin, pMax float64, gridP int, cold bool) WarmChain {
	if !cold {
		gridP = min(coldScanGridP, gridP)
	}
	return WarmChain{pMin: pMin, pMax: pMax, gridP: gridP, cold: cold}
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
// search over [lo, hi] on a gridP-point log-grid (warm selects the short
// Brent polish) and reports the optimum's P, whether it stopped at the
// allocation bound, and its evaluation count. restart forces the full
// box. warm reports that the last solve call, whose result the caller
// keeps, was the accepted warm attempt.
func (c *WarmChain) Solve(restart bool, solve func(lo, hi float64, gridP int, warm bool) (p float64, atBound bool, evals int, err error)) (warm bool, err error) {
	if c.seeded && !c.cold && !restart {
		lo := math.Max(c.pMin, c.p/warmBracketFactor)
		hi := math.Min(c.pMax, c.p*warmBracketFactor)
		if c.atBound {
			hi = c.pMax
		}
		if hi > lo {
			// An infeasible or unsolvable warm bracket is a fallback
			// trigger, not a sweep failure: the full box may still
			// contain an optimum.
			p, atBound, evals, err := solve(lo, hi, warmGrid, true)
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
	p, atBound, evals, err := solve(c.pMin, c.pMax, c.gridP, false)
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
// A warm cell therefore brackets the outer P search around the previous
// P* (WarmChain), localizes the minimum on a short log-grid, and polishes
// with bounded Brent; the inner u = log T minimization runs the same
// short-grid-plus-Brent scheme around the Theorem 1 seed. A cell whose
// objective class changed since the previous cell restarts on the full
// cold box, as does any warm solve WarmChain rejects (the sweep property
// tests pin warm against per-cell OptimalPattern within Tol-derived
// bounds).
//
// A solver is stateful (the chain state and a reusable per-P probe memo)
// and must not be shared between goroutines; run one solver per chain.
// The memo is keyed by P and valid only within one cell — the model
// changes between cells — so only its allocation is reused.
type SweepSolver struct {
	opts      SweepOptions
	chain     WarmChain
	prevClass costmodel.Class
	memo      map[float64]innerProbe
}

// NewSweepSolver builds a solver for one chain of related models.
func NewSweepSolver(opts SweepOptions) *SweepSolver {
	opts.PatternOptions = opts.PatternOptions.withDefaults()
	return &SweepSolver{
		opts:  opts,
		chain: NewWarmChain(opts.PMin, opts.PMax, opts.GridP, opts.Cold),
		memo:  make(map[float64]innerProbe, opts.GridP+8),
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
// cold scan; subsequent cells typically cost an order of magnitude less.
// A full-box solve is the reference OptimalPattern in Cold mode
// (bit-identical to a per-cell call); otherwise it keeps the fast
// Brent-polished inner minimizer so even chain restarts stay ~2–3× under
// the reference cost.
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
	warm, err := s.chain.Solve(class != s.prevClass, func(lo, hi float64, gridP int, warm bool) (float64, bool, int, error) {
		var err error
		if s.opts.Cold {
			res, err = OptimalPattern(m, s.opts.PatternOptions)
		} else {
			res, err = s.scan(m, lo, hi, gridP, warm)
		}
		return res.P, res.AtPBound, res.Evals, err
	})
	if err != nil {
		return PatternResult{}, err
	}
	s.prevClass = class
	res.Warm = warm
	return res, nil
}

// scan is the shared outer solve over [pLo, pHi]: a log-grid localization
// of g(P) = min_T H(T, P) followed by a bounded-Brent polish, with the
// same per-P probe memoization as OptimalPattern. warm selects the short
// inner minimizer (grid + Brent around the Theorem 1 seed); the cold
// restart keeps it too — only Cold mode routes to OptimalPattern.
func (s *SweepSolver) scan(m core.Model, pLo, pHi float64, gridP int, warm bool) (PatternResult, error) {
	opts := s.opts
	evals := 0
	clear(s.memo)
	probe := func(p float64) innerProbe {
		if pr, ok := s.memo[p]; ok {
			return pr
		}
		fz := m.Freeze(p)
		res, err := minimizeTBrent(&fz, opts.PatternOptions)
		evals += res.Evals
		pr := innerProbe{res: res, err: err}
		s.memo[p] = pr
		return pr
	}
	g := func(p float64) float64 {
		pr := probe(p)
		if pr.err != nil {
			return math.Inf(1)
		}
		return pr.res.F
	}

	outer, err := GridBrentLog(g, pLo, pHi, gridP, opts.Tol)
	if err != nil {
		if warm {
			return PatternResult{}, err
		}
		return PatternResult{}, errors.New("optimize: no feasible pattern in the search box")
	}

	pStar := outer.X
	atBound := pStar >= opts.PMax*(1-1e-6)
	if opts.IntegerP && !atBound {
		pStar = BetterInteger(g, pStar, opts.PMin, opts.PMax)
	}
	inner := probe(pStar)
	if inner.err != nil {
		return PatternResult{}, inner.err
	}
	return PatternResult{
		Solution: core.Solution{
			T:        inner.res.X,
			P:        pStar,
			Overhead: inner.res.F,
			Method:   "numerical",
			Class:    m.Res.Classify().Class,
		},
		AtPBound: atBound,
		Evals:    evals,
	}, nil
}

// innerProbe is the memoized outcome of one inner period minimization.
type innerProbe struct {
	res Result
	err error
}

// BatchOptimalPattern solves every model of an ordered sweep axis with
// one warm-start chain, returning one result per model. It is the batch
// counterpart of per-cell OptimalPattern calls: same answers within the
// refinement tolerance, at a fraction of the evaluations (each
// PatternResult carries its own Evals count and Warm flag).
func BatchOptimalPattern(models []core.Model, opts SweepOptions) ([]PatternResult, error) {
	s := NewSweepSolver(opts)
	out := make([]PatternResult, len(models))
	for i, m := range models {
		res, err := s.Solve(m)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// minimizeTBrent is the warm-path inner period minimizer: the same
// Theorem 1 seed bracket as minimizeT, localized on a warmGrid-point
// u = log T grid and polished with bounded Brent instead of the cold path's
// 48-point grid plus golden refinement (~3× fewer kernel calls at equal
// tolerance). Any failure — no finite seed, empty bracket, an
// all-infeasible grid — falls back to the robust cold minimizeT.
func minimizeTBrent(fz *core.Frozen, opts PatternOptions) (Result, error) {
	seed := fz.OptimalPeriod()
	if math.IsInf(seed, 0) || !(seed > 0) {
		return minimizeT(fz, opts)
	}
	lo := math.Max(opts.TMin, seed/1e3)
	hi := math.Min(opts.TMax, seed*1e3)
	if !(hi > lo) {
		return minimizeT(fz, opts)
	}
	res, err := gridBrentFrozen(fz, math.Log(lo), math.Log(hi), warmGrid, opts.Tol)
	if err != nil {
		return minimizeT(fz, opts)
	}
	res.X = math.Exp(res.X)
	return res, nil
}

// gridBrentFrozen localizes the frozen overhead kernel's minimum on a
// short u-grid and polishes the best bracket with bounded Brent. It
// keeps gridRefineFrozen's monotone infeasible-grid rejection: an
// overflow at the low edge proves the whole bracket infeasible after a
// single probe.
func gridBrentFrozen(fz *core.Frozen, uLo, uHi float64, points int, tol float64) (Result, error) {
	if !(uHi > uLo) {
		return Result{}, errGridBounds
	}
	if points < 3 {
		return Result{}, errGridPoints
	}
	if fz.OverflowsBeyond(uLo) {
		return Result{}, errGridAllInf
	}
	step := (uHi - uLo) / float64(points-1)
	gridPoint := func(i int) float64 {
		if i == points-1 {
			return uHi
		}
		return uLo + float64(i)*step
	}
	bestI, bestF := 0, math.Inf(1)
	for i := 0; i < points; i++ {
		if v := fz.OverheadLog(gridPoint(i)); v < bestF {
			bestI, bestF = i, v
		}
	}
	if math.IsInf(bestF, 1) {
		return Result{}, errGridAllInf
	}
	a := gridPoint(max(bestI-1, 0))
	b := gridPoint(min(bestI+1, points-1))
	res := BrentMin(fz.OverheadLog, a, b, tol, 0)
	res.Evals += points
	// The grid best might still beat the polished point on plateaus.
	if bestF < res.F {
		res.X, res.F = gridPoint(bestI), bestF
	}
	return res, nil
}

// GridBrentLog is the outer-loop counterpart on an arbitrary objective:
// a geometric grid over [lo, hi] followed by bounded Brent in u = log x
// coordinates. The returned X is in natural (not log) coordinates.
// Exported as the shared warm-bracket outer solve (the two-level sweep
// solver in internal/multilevel runs the same scheme).
func GridBrentLog(f Func, lo, hi float64, points int, tol float64) (Result, error) {
	if !(hi > lo) || lo <= 0 {
		return Result{}, errGridBounds
	}
	if points < 3 {
		return Result{}, errGridPoints
	}
	obj := func(u float64) float64 { return f(math.Exp(u)) }
	uLo, uHi := math.Log(lo), math.Log(hi)
	step := (uHi - uLo) / float64(points-1)
	gridPoint := func(i int) float64 {
		if i == points-1 {
			return uHi
		}
		return uLo + float64(i)*step
	}
	bestI, bestF := 0, math.Inf(1)
	for i := 0; i < points; i++ {
		if v := obj(gridPoint(i)); v < bestF {
			bestI, bestF = i, v
		}
	}
	if math.IsInf(bestF, 1) {
		return Result{}, errGridAllInf
	}
	a := gridPoint(max(bestI-1, 0))
	b := gridPoint(min(bestI+1, points-1))
	res := BrentMin(obj, a, b, tol, 0)
	res.Evals += points
	if bestF < res.F {
		res.X, res.F = gridPoint(bestI), bestF
	}
	res.X = math.Exp(res.X)
	return res, nil
}
