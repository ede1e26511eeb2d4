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

// Scan is the outer processor search behind every pattern solver: the
// paper's "optimal (numerical)" pattern is min over P of g(P), the best
// inner solution at P. The inner result R is the single-level period
// optimum, the two-level (T, K) plan or Theorem 1's overhead.
type Scan[R any] struct {
	// PMin and PMax are the global processor bounds: an optimum within a
	// relative 1e-6 of PMax is reported at the bound, and the integer
	// rounding stays inside them.
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
	// AtBound reports that the search stopped at PMax.
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
		memo = make(map[float64]Probe[R], gridP+8)
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
	p := math.Exp(outer.X)
	atBound := p >= s.PMax*(1-1e-6)
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
