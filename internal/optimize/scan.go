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
// the Brent polish, the integer rounding and the final probe add up to
// ~30 distinct P (a cold GridP scan probes 113–125 at p50–p90), so a memo
// sized for the grid alone would grow once per solve.
const memoSlack = 32

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
	// AtBound reports that the search box reached PMax and g(PMax) is
	// within boundSlack of the optimum: the search cannot tell the two
	// apart, so the true optimum may lie beyond the bound.
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
// ErrNoFeasible.
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

	outer, err := gridRefine(func(u float64) float64 { return g(math.Exp(u)) },
		math.Log(lo), math.Log(hi), gridP)
	if err != nil {
		return ScanResult[R]{}, ErrNoFeasible
	}
	// The bound is judged on g, not on P: near PMax g can be flat to
	// rounding, where the refined P lands anywhere in the flat stretch
	// and a test on P flips between solves that agree on g. The grid's
	// last point is the bound's probe, so the test costs no inner solve.
	p := math.Exp(outer.X)
	atBound := hi >= s.PMax && g(math.Exp(math.Log(hi))) <= outer.F*(1+boundSlack)
	if s.IntegerP && !atBound {
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
