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

// memoCap is how many distinct probes a scan keeps in the memo array on
// its stack: a default-box single-level scan makes at most ~50 and a
// full-box two-level scan (96 grid points plus its polish) ~130, so
// neither leaves the array, and the array stays a few KB (~6 KB
// single-level, ~8 KB two-level). A scan with more distinct probes — a
// box out to 1e300, or the dense rescan — moves the array into a map
// made once for that scan and memoizes there, so its cost stays linear
// in its probes.
const memoCap = 160

// memoEntry is one probe of a scan's memo, keyed by its P.
type memoEntry[R any] struct {
	p  float64
	pr Probe[R]
}

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
// revisit grid points and bracket endpoints through the memo, whose
// keys match by ==, as a map's float64 keys do: +0 and −0 are one P, and
// a NaN is never found. The final probe's error is returned as is; a
// grid with no feasible probe is rescanned once at rescanPerDecade when
// that is denser, and is ErrNoFeasible when the rescan finds none
// either.
func (s *Scan[R]) Run(lo, hi float64, gridP int) (ScanResult[R], error) {
	if !(hi > lo && lo > 0) {
		return ScanResult[R]{}, ErrNoFeasible
	}
	var memo [memoCap]memoEntry[R]
	var spill map[float64]Probe[R]
	held, evals := 0, 0
	probe := func(p float64) Probe[R] {
		if spill != nil {
			if pr, ok := spill[p]; ok {
				return pr
			}
		} else {
			for i := range memo[:held] {
				if memo[i].p == p {
					return memo[i].pr
				}
			}
		}
		pr, n := s.Inner(p)
		evals += n
		switch {
		case held < memoCap:
			memo[held] = memoEntry[R]{p: p, pr: pr}
			held++
		case spill == nil:
			// The array is full: the rest of the scan memoizes in one map.
			spill = make(map[float64]Probe[R], 4*memoCap)
			for _, e := range memo {
				spill[e.p] = e.pr
			}
			fallthrough
		default:
			spill[p] = pr
		}
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
