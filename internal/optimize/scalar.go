// Package optimize provides the numerical-optimization substrate used to
// compute the paper's "optimal (numerical)" curves: one derivative-free
// scalar minimizer (bounded Brent), one grid-then-refine routine for
// robustly non-unimodal objectives, and one memoized outer processor
// scan (Scan) nested over an inner solve at each P. The single-level
// optimizer over (T, P) built on the exact overhead formula of
// Proposition 1, the semi-analytic optimum, the warm-start sweep solver
// and the two-level optimizer in internal/multilevel all run on that
// scan. The single-level inner solve, the period at a fixed P, is a
// Newton iteration on Proposition 1's analytic derivatives (minimizeT).
package optimize

import (
	"errors"
	"math"
)

// Func is a scalar objective. It may return +Inf to reject a point, which
// gridRefine treats as "worse than everything".
type Func func(float64) float64

// Result reports a scalar minimization outcome.
type Result struct {
	// X is the minimizer found.
	X float64
	// F is the objective value at X.
	F float64
	// Evals counts objective evaluations.
	Evals int
	// Converged reports whether the interval shrank below tolerance
	// before the iteration budget ran out.
	Converged bool
}

// BrentMin minimizes f on [a, b] with Brent's method (parabolic
// interpolation with golden-section fallback), the bounded variant used by
// scipy's fminbound. tol is the relative x tolerance.
//
// BrentMin assumes f is finite on [a, b]. A +Inf region is no barrier:
// Brent accepts fu <= fx as progress, so from a +Inf first probe it can
// walk across a +Inf plateau and return F = +Inf. gridRefine is safe,
// because its bracket is centred on a finite grid point and it keeps the
// grid best when the refinement ends worse.
func BrentMin(f Func, a, b, tol float64) Result {
	if b < a {
		a, b = b, a
	}
	const (
		maxIter = 200
		tiny    = 1e-21
		cg      = 0.3819660112501051 // (3 − √5)/2, the golden-section step
	)

	x := a + cg*(b-a)
	w, v := x, x
	fx := f(x)
	fw, fv := fx, fx
	evals := 1
	var deltaX, rat float64
	converged := false

	for i := 0; i < maxIter; i++ {
		mid := 0.5 * (a + b)
		tol1 := tol*math.Abs(x) + tiny
		tol2 := 2 * tol1
		if math.Abs(x-mid) <= tol2-0.5*(b-a) {
			converged = true
			break
		}
		useGolden := true
		if math.Abs(deltaX) > tol1 {
			// Fit a parabola through (v, fv), (w, fw), (x, fx).
			tmp1 := (x - w) * (fx - fv)
			tmp2 := (x - v) * (fx - fw)
			p := (x-v)*tmp2 - (x-w)*tmp1
			tmp2 = 2 * (tmp2 - tmp1)
			if tmp2 > 0 {
				p = -p
			}
			tmp2 = math.Abs(tmp2)
			dxTemp := deltaX
			deltaX = rat
			// Accept the parabolic step only if it is inside the
			// bounds and shrinks faster than the previous step.
			if p > tmp2*(a-x) && p < tmp2*(b-x) && math.Abs(p) < math.Abs(0.5*tmp2*dxTemp) {
				rat = p / tmp2
				u := x + rat
				if (u-a) < tol2 || (b-u) < tol2 {
					rat = math.Copysign(tol1, mid-x)
				}
				useGolden = false
			}
		}
		if useGolden {
			if x >= mid {
				deltaX = a - x
			} else {
				deltaX = b - x
			}
			rat = cg * deltaX
		}
		var u float64
		if math.Abs(rat) >= tol1 {
			u = x + rat
		} else {
			u = x + math.Copysign(tol1, rat)
		}
		fu := f(u)
		evals++
		if fu <= fx {
			if u >= x {
				a = x
			} else {
				b = x
			}
			v, w, x = w, x, u
			fv, fw, fx = fw, fx, fu
		} else {
			if u < x {
				a = u
			} else {
				b = u
			}
			if fu <= fw || w == x {
				v, w = w, u
				fv, fw = fw, fu
			} else if fu <= fv || v == x || v == w {
				v, fv = u, fu
			}
		}
	}
	return Result{X: x, F: fx, Evals: evals, Converged: converged}
}

// gridRefine scans f on points evenly spaced grid points over [lo, hi],
// then refines the bracket around the best point with bounded Brent at
// refineTol. A dense grid makes it robust to objectives that are not
// globally unimodal, as the outer P scan's is; the scan runs it in
// u = log P. The returned Result is the refined minimum; ties prefer
// the smaller x, and the grid best wins a plateau. Callers check lo < hi
// in their own coordinates.
func gridRefine(f Func, lo, hi float64, points int) (Result, error) {
	if points < 3 {
		return Result{}, errGridPoints
	}
	step := (hi - lo) / float64(points-1)
	// gridPoint recomputes the i-th grid coordinate instead of storing the
	// whole grid: only the best point and its two neighbours are ever
	// needed again, which keeps the scan allocation-free.
	gridPoint := func(i int) float64 {
		if i == points-1 {
			return hi
		}
		return lo + float64(i)*step
	}

	bestI, bestF := 0, math.Inf(1)
	for i := 0; i < points; i++ {
		if v := f(gridPoint(i)); v < bestF {
			bestI, bestF = i, v
		}
	}
	if math.IsInf(bestF, 1) {
		return Result{}, errGridAllInf
	}

	res := BrentMin(f, gridPoint(max(bestI-1, 0)), gridPoint(min(bestI+1, points-1)), refineTol)
	res.Evals += points
	// The grid best might still beat the refined point on plateaus.
	if bestF < res.F {
		res.X, res.F = gridPoint(bestI), bestF
	}
	return res, nil
}

// Shared error values of the grid refinement and the period search
// (allocated once; the overflow-clip rejection fires on every deep-tail
// P probe).
var (
	errGridPoints = errors.New("optimize: GridRefine needs at least 3 grid points")
	errGridAllInf = errors.New("optimize: objective is +Inf over the whole grid")
)
