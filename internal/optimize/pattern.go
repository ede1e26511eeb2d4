package optimize

import (
	"fmt"
	"math"

	"amdahlyd/internal/core"
)

// The search resolution of the single-level solvers.
const (
	// gridStep is the spacing in u = log P of a full-box single-level
	// processor scan: 16 points over the default 13-decade box. On every
	// single-level objective a differential run found the optimum's basin
	// from this grid as it did from a 96-point one (DESIGN.md, "Ablations
	// pinned by benchmarks"); the two-level objective, a minimum over an
	// integer segment count, keeps a dense grid of its own. It is a
	// spacing, not a count, so a wide box is no coarser: a box up to
	// 1e300 gets ~348 points, almost all +Inf probes past the overflow
	// period that make no kernel call.
	gridStep = 13 * math.Ln10 / 15
	// refineTol is the relative u tolerance of the Newton period search.
	refineTol = 1e-10
)

// gridPoints is the size of a full-box single-level scan's log-grid over
// [lo, hi]: points gridStep apart, never fewer than 3. The 1e-9 slack
// keeps the default box at 16 points, whatever the rounding of its log
// width. A box validate rejects gets 3.
func gridPoints(lo, hi float64) int {
	steps := math.Ceil((math.Log(hi)-math.Log(lo))/gridStep - 1e-9)
	if !(steps >= 2) || math.IsInf(steps, 1) {
		return 3
	}
	return int(steps) + 1
}

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
	// AtPBound reports that the optimum sits at PMax: the overhead there
	// is within a relative 1e-12 of the optimum, so the search cannot
	// tell them apart and the true optimum may lie beyond the bound (this
	// happens by design in scenario 6 with α = 0, where the paper finds
	// the allocation unbounded). It is decided on H, not on P, which can
	// land anywhere on a stretch that flat.
	AtPBound bool
	// Evals counts exact-formula evaluations: one per call of the
	// Proposition 1 kernel, so a Newton step's E, T·E′/E and T²·E″/E
	// count once.
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

// maxPeriodSteps bounds the kernel calls of one period search. Bisection
// alone narrows the widest box float64 allows, u = log T from −745 to
// 710, to the 1e-10 tolerance in about 45 steps, and to edgeTol in
// about 60.
const maxPeriodSteps = 100

// edgeTol is the relative bracket width, in u, at which the period
// search stops when its bracket ends where E overflows, and to which the
// processor scan bisects an edge where g turns infinite: at least four
// ulps of u, where a bisection midpoint still differs from both ends.
const edgeTol = 0x1p-50

// minimizeT solves the inner period problem min_T H(T, P) on a compiled
// evaluator by a safeguarded Newton iteration in u = log T on
// Proposition 1's analytic derivatives (core.Frozen.PatternTimeDerivs),
// warm and cold solves alike.
//
// H′(u) = H·ψ with ψ = T·E′/E − 1, and ψ has the sign of T·E′ − E,
// which never decreases because E(T) is convex (DESIGN.md): ψ changes
// sign once, at the minimum. The iteration starts at Theorem 1's period
// and steps −ψ/ψ′, with ψ′ = r − r² + s from the kernel's r = T·E′/E
// = ψ + 1 and s = T²·E″/E, over the whole period box clipped at the
// overflow period, beyond which H is +Inf. It keeps a sign bracket: a step that leaves it, or has no finite
// positive ψ′, bisects instead, except that a box edge whose sign is
// still unknown is probed first, once; when ψ shows no sign change
// there, that edge is the answer, because H is monotone over the box. A
// non-finite E counts as ψ > 0, the overflow side. The search stops
// when a step or the bracket is within refineTol of u (relative, with
// an absolute floor at |u| < 1) and returns the lowest H seen, with T
// clamped into the box. A bracket that ends where E overflows narrows
// to edgeTol instead: with a downtime near the float64 range E can
// overflow while H still falls, and the minimum is then that edge,
// where H is not flat. Evals counts kernel calls, one per step.
func minimizeT(fz *core.Frozen, opts PatternOptions) (Result, error) {
	lo, hi := opts.TMin, math.Min(opts.TMax, fz.OverflowPeriod())
	if !(hi > lo) {
		return Result{}, errGridAllInf
	}
	hP := fz.ProfileOverhead()
	// ψ < 0 at a and ψ > 0 at b once aSeen and bSeen; until then a and b
	// are the box edges. bInf records that E overflowed at b.
	a, b := math.Log(lo), math.Log(hi)
	aSeen, bSeen, bInf := false, false, false
	u := math.Log(fz.OptimalPeriod()) // +Inf without errors, −Inf when C + V = 0
	if !(u > a) {
		u = a
	} else if u > b {
		u = b
	}
	best := Result{F: math.Inf(1)}
	for best.Evals < maxPeriodSteps {
		t := math.Min(math.Max(math.Exp(u), lo), hi)
		e, r, s := fz.PatternTimeDerivs(t)
		best.Evals++
		h, psi, step := e, math.Inf(1), math.NaN()
		if !math.IsInf(e, 1) {
			h = e / t * hP // Overhead(t), bit for bit
			psi = r - 1
			if dpsi := r - r*r + s; dpsi > 0 && !math.IsInf(dpsi, 1) {
				step = -psi / dpsi
			}
		}
		if h < best.F {
			best.X, best.F = t, h
		}
		if psi < 0 {
			a, aSeen = u, true
		} else if psi != 0 { // ψ > 0 or NaN
			b, bSeen, bInf = u, true, math.IsInf(e, 1)
		}
		scale := math.Max(math.Abs(u), 1)
		tol, width := refineTol*scale, refineTol*scale
		if bInf {
			width = edgeTol * scale
		}
		if psi == 0 || b-a <= width || math.Abs(step) <= tol {
			break
		}
		next := u + step
		if !(next > a && next < b) {
			switch {
			case psi < 0 && !bSeen:
				next = b
			case !(psi < 0) && !aSeen:
				next = a
			default:
				next = a + (b-a)/2
			}
		}
		u = next
	}
	if math.IsInf(best.F, 1) {
		return Result{}, errGridAllInf
	}
	return best, nil
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
	return solvePattern(m, opts, opts.PMin, opts.PMax, gridPoints(opts.PMin, opts.PMax))
}

// solvePattern runs the outer Scan over [lo, hi] on a gridP-point log-grid
// with the inner period search at every probe.
func solvePattern(m core.Model, opts PatternOptions, lo, hi float64, gridP int) (PatternResult, error) {
	s := Scan[float64]{
		PMin: opts.PMin, PMax: opts.PMax, IntegerP: opts.IntegerP,
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
