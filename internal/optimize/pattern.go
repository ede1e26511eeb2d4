package optimize

import (
	"fmt"
	"math"

	"amdahlyd/internal/core"
)

// The search resolution every pattern solver shares.
const (
	// GridP is the outer log-grid resolution of a full-box processor
	// scan, ~7 points per decade over the default 13-decade box. H(P) is
	// not unimodal across objective-class changes and bounds, so the
	// outer level keeps a dense grid; the inner period search needs none
	// (minimizeT).
	GridP = 96
	// refineTol is the relative x tolerance of every Brent refinement.
	refineTol = 1e-10
)

// DefaultPMax is PatternOptions' default processor bound, shared by the
// two-level and heterogeneous search boxes.
const DefaultPMax = 1e13

// PatternOptions tunes the nested (T, P) optimization. The zero value
// selects defaults suitable for every experiment in the paper.
type PatternOptions struct {
	// PMin and PMax bound the processor search (defaults 1 and 1e13; the
	// α = 0 sweeps of Fig. 6 reach P* ≈ λ^−1 = 1e12).
	PMin, PMax float64
	// TMin and TMax bound the period search in seconds (defaults 1e-6
	// and 1e12; the low default matters in the unbounded-allocation
	// regimes, where the optimal period shrinks like 1/P and a coarse
	// lower bound would fabricate an interior optimum).
	TMin, TMax float64
	// IntegerP rounds the processor allocation to the better of
	// floor/ceil after the continuous optimization.
	IntegerP bool
}

func (o PatternOptions) withDefaults() PatternOptions {
	if o.PMin == 0 {
		o.PMin = 1
	}
	if o.PMax == 0 {
		o.PMax = DefaultPMax
	}
	if o.TMin == 0 {
		o.TMin = 1e-6
	}
	if o.TMax == 0 {
		o.TMax = 1e12
	}
	return o
}

// validate rejects an empty, inverted or unbounded search box; NaN
// bounds fail the ordering tests. The period search runs in u = log T, so
// the period box must be non-empty there too.
func (o PatternOptions) validate() error {
	if !(o.PMax > o.PMin) || o.PMin < 1 || math.IsInf(o.PMax, 1) {
		return fmt.Errorf("optimize: bad processor bounds [%g, %g]", o.PMin, o.PMax)
	}
	if !(o.TMin > 0) || !(math.Log(o.TMax) > math.Log(o.TMin)) || math.IsInf(o.TMax, 1) {
		return fmt.Errorf("optimize: bad period bounds [%g, %g]", o.TMin, o.TMax)
	}
	return nil
}

// PatternResult is the numerical optimum of the exact overhead
// H(T, P) = E(PATTERN)/(T·S(P)) from Proposition 1.
type PatternResult struct {
	core.Solution
	// AtPBound reports that the optimizer stopped at PMax: the overhead
	// was still decreasing, so the true optimum lies beyond the search
	// bound (this happens by design in scenario 6 with α = 0, where the
	// paper finds the allocation unbounded).
	AtPBound bool
	// Evals counts exact-formula evaluations.
	Evals int
	// Warm reports that the result was produced by a SweepSolver
	// warm-start solve (narrow bracket around the previous cell's
	// optimum) rather than the full cold grid scan.
	Warm bool
}

// OptimalPeriod minimizes the exact overhead over T for a fixed processor
// count and returns (T*, H(T*, P)). It seeds the search with the
// first-order Theorem 1 period when it is finite and inside bounds.
func OptimalPeriod(m core.Model, p float64, opts PatternOptions) (float64, float64, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return 0, 0, err
	}
	if err := m.Validate(); err != nil {
		return 0, 0, err
	}
	if !(p >= 1) || math.IsInf(p, 1) {
		return 0, 0, fmt.Errorf("optimize: processor count %g is not a finite value ≥ 1", p)
	}
	fz := m.Freeze(p)
	res, err := minimizeT(&fz, opts)
	if err != nil {
		return 0, 0, err
	}
	return res.X, res.F, nil
}

// minimizeT solves the inner period problem min_T H(T, P) on a compiled
// evaluator, so every objective evaluation pays only the frozen per-call
// cost (no Rates, cost-model or exponential recomputation).
//
// At a fixed P, Proposition 1's pattern time E(T) is convex, so
// H(T) = E(T)/T·H(P) has exactly one minimum in T, hence in u = log T
// (DESIGN.md): three grid points bracket it and Brent polishes. The
// search runs in a bracket of a factor 1e3 around Theorem 1's period,
// where the exact optimum sits whenever the approximation is anywhere
// near valid, and on the full [TMin, TMax] range when that period is not
// finite or its bracket has no finite point. Warm and cold solves share
// it.
func minimizeT(fz *core.Frozen, opts PatternOptions) (Result, error) {
	if seed := fz.OptimalPeriod(); !math.IsInf(seed, 0) && seed > 0 {
		res, err := searchT(fz, math.Max(opts.TMin, seed/1e3), math.Min(opts.TMax, seed*1e3))
		if err == nil {
			return res, nil
		}
	}
	return searchT(fz, opts.TMin, opts.TMax)
}

// searchT runs a 3-point gridRefine over u = log T in [log lo, log hi]
// on the frozen kernel's log-period form (OverheadLog). The bracket is
// first clipped at the overflow period, beyond which the overhead is
// +Inf: no grid point lands on that plateau, and a bracket that starts
// past it is rejected without an evaluation (what the P grid's deep
// failure-dominated tail would cost otherwise).
func searchT(fz *core.Frozen, lo, hi float64) (Result, error) {
	tOv := fz.OverflowPeriod()
	if !(tOv > lo) {
		return Result{}, errGridAllInf
	}
	hi = math.Min(hi, tOv)
	uLo, uHi := math.Log(lo), math.Log(hi)
	if !(uHi > uLo) {
		return Result{}, errGridBounds
	}
	res, err := gridRefine(fz.OverheadLog, uLo, uHi, 3)
	if err != nil {
		return Result{}, err
	}
	// e^{log T} can round a bracket edge just outside the bracket.
	res.X = math.Min(math.Max(math.Exp(res.X), lo), hi)
	return res, nil
}

// OptimalPattern minimizes the exact overhead jointly over T and P by a
// log-grid scan over P with Brent refinement, solving the inner period
// problem exactly at each probe. This is the reproduction of the paper's
// "Optimal (numerical)" solution (the role played by the iterative method
// of Jin et al. [14] in the paper's comparison).
func OptimalPattern(m core.Model, opts PatternOptions) (PatternResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return PatternResult{}, err
	}
	if err := m.Validate(); err != nil {
		return PatternResult{}, err
	}
	return solvePattern(m, opts, nil, opts.PMin, opts.PMax, GridP)
}

// solvePattern runs the outer Scan over [lo, hi] on a gridP-point log-grid
// with the inner period search at every probe. memo is the caller's probe
// memo (nil for a fresh one) of each P's optimal period.
func solvePattern(m core.Model, opts PatternOptions, memo map[float64]Probe[float64], lo, hi float64, gridP int) (PatternResult, error) {
	s := Scan[float64]{
		PMin: opts.PMin, PMax: opts.PMax, IntegerP: opts.IntegerP, Memo: memo,
		Inner: func(p float64) (Probe[float64], int) {
			fz := m.Freeze(p)
			res, err := minimizeT(&fz, opts)
			return Probe[float64]{Inner: res.X, F: res.F, Err: err}, res.Evals
		},
	}
	out, err := s.Run(lo, hi, gridP)
	if err != nil {
		return PatternResult{}, err
	}
	return PatternResult{
		Solution: core.Solution{
			T:        out.Inner,
			P:        out.P,
			Overhead: out.F,
			Method:   "numerical",
			Class:    m.Res.Classify().Class,
		},
		AtPBound: out.AtBound,
		Evals:    out.Evals,
	}, nil
}
