package optimize

import (
	"errors"
	"math"
)

// ErrNoFeasible is returned by Scan.Run when every probe of the outer
// grid is infeasible (or the processor box is empty).
var ErrNoFeasible = errors.New("optimize: no feasible pattern in the search box")

// Probe is one inner solve of the outer processor search: the inner
// solution at a processor count P and the objective g(P) the search
// minimizes. A probe with Err set counts as g(P) = +Inf.
type Probe[R any] struct {
	Inner R
	F     float64
	Err   error
}

// memoSlack is the probe-memo room a scan needs beyond its grid points:
// the Brent polish, the integer rounding and the final probe add 10
// distinct P at p50, 14 at p90 and up to ~35 (cold single-level scans
// of random models), so a memo sized for the grid alone would grow in
// most solves.
const memoSlack = 32

// rescanPerDecade is the density, in points per decade of P, of the
// rescan Scan.Run makes when its grid holds no feasible probe: the
// density of the dense reference the scans are fuzzed against.
const rescanPerDecade = 30

// boundSlack is how close to the optimum g(PMax) must come for a scan to
// report the optimum at the bound: the relative resolution in H to which
// two solves of one model agree (their H differ by ~1e-14 at most).
const boundSlack = 1e-12

// Scan is the outer processor search behind every pattern solver: the
// paper's "optimal (numerical)" pattern is min over P of g(P), the best
// inner solution at P. The inner result R is the single-level period
// optimum, the two-level (T, K) plan or Theorem 1's overhead.
type Scan[R any] struct {
	// PMin and PMax are the global processor bounds: an optimum whose g
	// is within boundSlack of g(PMax) is reported at the bound, and the
	// integer rounding stays inside them.
	PMin, PMax float64
	// IntegerP rounds the optimum to the better of floor/ceil.
	IntegerP bool
	// Memo, when set, is the caller's per-P probe memo: Run clears it and
	// reuses its storage, so a solver running many scans allocates it
	// once. A nil Memo gets a fresh map per Run.
	Memo map[float64]Probe[R]
	// Inner solves the inner problem at P and returns its evaluation
	// count.
	Inner func(p float64) (Probe[R], int)
}

// ScanResult is the outcome of a Scan: the probe at the chosen P.
type ScanResult[R any] struct {
	// Inner and F are the inner solution and g(P) at P.
	Inner R
	F     float64
	P     float64
	// AtBound reports that g(PMax) is within boundSlack of the optimum:
	// the search cannot tell the two apart, so the true optimum may lie
	// beyond the bound. A box below PMax reports it only when g is flat
	// to within boundSlack up to the box's top as well.
	AtBound bool
	// Evals totals the evaluation counts of the distinct probes.
	Evals int
}

// Run minimizes g over [lo, hi]: a gridP-point log-grid localization,
// refined by gridRefine's bounded Brent, the optional integer rounding
// and a final probe at the chosen P. Each distinct P is solved once: the
// grid scan, the refinement, the rounding and the final probe all
// revisit grid points and bracket endpoints through the memo. The final
// probe's error is returned as is; a grid with no feasible probe is
// rescanned once at rescanPerDecade when that is denser, and is
// ErrNoFeasible when the rescan finds none either.
func (s *Scan[R]) Run(lo, hi float64, gridP int) (ScanResult[R], error) {
	if !(hi > lo && lo > 0) {
		return ScanResult[R]{}, ErrNoFeasible
	}
	memo := s.Memo
	if memo == nil {
		memo = make(map[float64]Probe[R], gridP+memoSlack)
	} else {
		clear(memo)
	}
	evals := 0
	probe := func(p float64) Probe[R] {
		if pr, ok := memo[p]; ok {
			return pr
		}
		pr, n := s.Inner(p)
		evals += n
		memo[p] = pr
		return pr
	}
	g := func(p float64) float64 {
		if pr := probe(p); pr.Err == nil {
			return pr.F
		}
		return math.Inf(1)
	}

	// P is e^u clamped into the box, as the period search clamps T:
	// e^{log hi} rounds past hi on the default box (1e13 + 0.002), where
	// an optimum at the bound would fall outside it.
	at := func(u float64) float64 { return math.Min(math.Max(math.Exp(u), lo), hi) }
	f := func(u float64) float64 { return g(at(u)) }
	uLo, uHi := math.Log(lo), math.Log(hi)
	outer, err := gridRefine(f, uLo, uHi, gridP)
	// A feasible island narrower than the grid step can hide between two
	// infeasible probes (Hera, scenario 5, α = 0.1, D = 7 s, λ_ind ≈
	// 0.0105: g is finite only for P in [7.6, 32.8], and the default grid
	// probes 7.36 and 54.1), so an all-infeasible grid is rescanned once
	// at rescanPerDecade before the box is declared infeasible. Probes
	// past the overflow period make no kernel call.
	if dense := max(3, int(math.Ceil(rescanPerDecade*(uHi-uLo)/math.Ln10))+1); err != nil && dense > gridP {
		outer, err = gridRefine(f, uLo, uHi, dense)
	}
	if err != nil {
		return ScanResult[R]{}, ErrNoFeasible
	}
	// The bound is judged on g, not on P: near PMax g can be flat to
	// rounding, where the refined P lands anywhere in the flat stretch
	// and a test on P flips between solves that agree on g. The grid's
	// last point is the box top's probe, so a full-box test costs no
	// inner solve. A box below PMax (a warm bracket) whose g is flat up
	// to its top probes PMax itself: with α = 1, g is flat to rounding
	// over decades of P, and a bracket short of PMax would report no
	// bound where the full box reports one.
	p := at(outer.X)
	atBound := g(at(uHi)) <= outer.F*(1+boundSlack) &&
		(hi >= s.PMax || g(s.PMax) <= outer.F*(1+boundSlack))
	if s.IntegerP {
		p = betterInteger(g, p, s.PMin, s.PMax)
	}
	pr := probe(p)
	if pr.Err != nil {
		return ScanResult[R]{}, pr.Err
	}
	return ScanResult[R]{Inner: pr.Inner, F: pr.F, P: p, AtBound: atBound, Evals: evals}, nil
}

// betterInteger picks the best integer processor count adjacent to the
// continuous optimum.
func betterInteger(g Func, p, pMin, pMax float64) float64 {
	lo := math.Max(pMin, math.Floor(p))
	hi := math.Min(pMax, math.Ceil(p))
	if lo == hi {
		return lo
	}
	if g(lo) <= g(hi) {
		return lo
	}
	return hi
}
