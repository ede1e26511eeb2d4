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
// because it narrows a bracket end where f is +Inf to the finite region
// before polishing and keeps the grid best when the refinement ends
// worse.
func BrentMin(f Func, a, b, tol float64) Result {
	if b < a {
		a, b = b, a
	}
	res, _, _ := brent(f, golden(f, a, b), tolerance{rel: tol, abs: 1e-21})
	return res
}

// cg is the golden-section step, (3 − √5)/2.
const cg = 0.3819660112501051

// brentState is where a Brent iteration stands: the bracket [a, b], the
// best point x, the second best w and the previous w, v, with their
// values, and the last two step lengths (rat, the last; deltaX, the one
// before it), which decide whether a parabolic step is accepted. A
// seeded state may restart from the golden-section point of [a, b]
// after its first step (seeded says when).
type brentState struct {
	a, b, x, w, v float64
	fx, fw, fv    float64
	deltaX, rat   float64
	evals         int
	seeded        bool
}

// golden is the textbook start: one probe at the golden-section point of
// [a, b], with no step taken yet, so the first step is golden too.
func golden(f Func, a, b float64) brentState {
	x := a + cg*(b-a)
	fx := f(x)
	return brentState{a: a, b: b, x: x, w: x, v: x, fx: fx, fw: fx, fv: fx, evals: 1}
}

// seeded starts Brent from three points the caller already holds: the
// best x inside [a, b] and the two ends, the better end as w. The step
// before last spans the bracket and the last step half of it (the
// spacing of a grid that put x between a and b), so the first step is
// the parabola through the three points, accepted anywhere inside the
// bracket. No probe is made. With x the best of the three, the vertex
// lies within half a grid step of x, and at a smooth minimum it lands
// lower than x wherever it lies in the outer half of that range (one
// neighbour then nearly ties x, so the minimum lies between them). A
// first step there that is higher than x says the three points are not
// one smooth basin but a corner, where the period search reaches its box
// bound: flat to one side, steep to the other. The polish then restarts
// from the golden-section point, whose path does not trust them.
func seeded(a, b, x, fa, fx, fb float64) brentState {
	st := brentState{a: a, b: b, x: x, fx: fx, w: a, fw: fa, v: b, fv: fb,
		deltaX: b - a, rat: (b - a) / 2, seeded: true}
	if fb < fa {
		st.w, st.fw, st.v, st.fv = b, fb, a, fa
	}
	return st
}

// tolerance is Brent's x tolerance at x, rel·max(|x|, floor) + abs.
// widen lets near scale rel to the objective's rounding (polishStep).
type tolerance struct {
	rel, floor, abs float64
	widen           bool
}

func (t tolerance) at(x float64) float64 {
	if a := math.Abs(x); a > t.floor {
		return t.rel*a + t.abs
	}
	return t.rel*t.floor + t.abs
}

// near is t for an objective near fx: with widen set and fx above
// noisyH, rel grows by √(ln fx / 64), the square root of the rounding.
func (t tolerance) near(fx float64) tolerance {
	if t.widen && fx > noisyH && !math.IsInf(fx, 1) {
		t.rel *= math.Sqrt(math.Log(fx) / 64)
	}
	return t
}

// brent iterates Brent's method from st until the bracket is within the
// tolerance of its best point, or 200 steps, and returns the best point
// and the final bracket. Evals counts st's probes and every step's.
func brent(f Func, st brentState, tol tolerance) (Result, float64, float64) {
	const maxIter = 200
	a, b, x, w, v := st.a, st.b, st.x, st.w, st.v
	fx, fw, fv := st.fx, st.fw, st.fv
	deltaX, rat := st.deltaX, st.rat
	evals := st.evals
	converged := false

	for i := 0; i < maxIter; i++ {
		mid := 0.5 * (a + b)
		tol1 := tol.at(x)
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
		if i == 0 && st.seeded && fu > fx && 8*math.Abs(u-x) > st.b-st.a {
			res, lo, hi := brent(f, golden(f, st.a, st.b), tol)
			res.Evals += evals
			return res, lo, hi
		}
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
	return Result{X: x, F: fx, Evals: evals, Converged: converged}, a, b
}

// polishTol is the relative x tolerance of gridRefine's Brent polish:
// √ε. The scan runs it in u = log P on an objective known to ~1e-16, so
// below √ε in u Brent's parabola fits rounding, not curvature. Like the
// period search's, it is floored at |u| < 1: relative to u alone it
// would shrink toward nothing as P → 1, where no other P asks for it.
const polishTol = 0x1p-26

// noisyH is e^64, above which the polish step widens. The kernel's
// exponent arguments reach ln H, so H carries ~ε·ln H of rounding, not
// ε, and a √ε step reads a slope below that rounding as flat: within a
// factor 2 of MaxFloat64 a √ε polish settled 1.25e-6 in u (30 steps)
// from a smooth minimum, 1.7e-12 above it. Below e^64 the rounding
// stays under 64ε and the √ε step resolves the minimum to ~1e-14.
const noisyH = 6.235149080811617e27

// polishStep is the polish's x tolerance: polishTol relative to x,
// floored at |x| < 1, and widened near noisyH and above (near).
var polishStep = tolerance{rel: polishTol, floor: 1, widen: true}

// gridRefine scans f on points evenly spaced grid points over [lo, hi],
// then refines the bracket around the best point with bounded Brent at
// polishTol. The grid localizes the minimum on objectives that are not
// globally unimodal; the scan runs it in u = log P. The returned Result
// is the refined minimum; ties prefer the smaller x, and the grid best
// wins a plateau. Callers check lo < hi in their own coordinates.
//
// Brent starts from what the grid already holds. At an interior best
// point with two finite neighbours it is seeded with the three grid
// points, so its first step is their parabola's vertex. At an end of the
// grid one probe a polish step inside the end decides: no lower, and the
// end is the answer, since under the unimodality the polish assumes the
// minimum then lies within that step of it; lower, and Brent polishes
// the end's bracket from its golden-section point. A neighbour where f is
// +Inf is narrowed to the edge of the finite region first (finiteEdge),
// and that bracket, too, is polished from its golden-section point.
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

	x := gridPoint(bestI)
	a, b := gridPoint(max(bestI-1, 0)), gridPoint(min(bestI+1, points-1))
	atEnd := bestI == 0 || bestI == points-1
	tol := polishStep.near(bestF)
	if atEnd {
		inner := x + tol.at(x)
		if bestI > 0 {
			inner = x - tol.at(x)
		}
		if !(f(inner) < bestF) {
			return Result{X: x, F: bestF, Evals: points + 1, Converged: true}, nil
		}
	}
	// A neighbour where f is +Inf puts the end of the finite region inside
	// the bracket, and Brent walks across a +Inf plateau from a first
	// probe there. That side of the bracket is narrowed to the edge first,
	// and the edge is a candidate: f can fall all the way to where it
	// turns infinite (the period search starts to overflow), and the
	// minimum is then the edge itself.
	fa, fb := f(a), f(b)
	aEdge, bEdge := math.IsInf(fa, 1), math.IsInf(fb, 1)
	if aEdge {
		a = finiteEdge(f, x, a)
	}
	if bEdge {
		b = finiteEdge(f, x, b)
	}
	var start brentState
	if atEnd || aEdge || bEdge {
		start = golden(f, a, b)
	} else {
		start = seeded(a, b, x, fa, bestF, fb)
	}
	res, lo, hi := brent(f, start, tol)
	res = sharpen(f, res, lo, hi)
	res.Evals += points
	if aEdge {
		if v := f(a); v < res.F {
			res.X, res.F = a, v
		}
	}
	if bEdge {
		if v := f(b); v < res.F {
			res.X, res.F = b, v
		}
	}
	// The grid best might still beat the refined point on plateaus.
	if bestF < res.F {
		res.X, res.F = x, bestF
	}
	return res, nil
}

// cornerSlack is how far above the polished minimum, relative, the ends
// of the polish's final bracket may lie. At a smooth minimum they lie
// ~1e-15 above it; at a corner — the processor count where the period
// search reaches its box bound — H rises linearly on both sides, and the
// √ε polish leaves it ~1e-9 above the corner.
const cornerSlack = 1e-13

// sharpen narrows the polish's final bracket [a, b] around its best point
// res.X by golden-section steps, which need no smoothness, until both
// ends lie within cornerSlack of the best value or the bracket is
// edgeTol wide. At a smooth minimum it probes nothing: the ends are
// probed points, memo hits in the scan. A probe above the end beyond it
// breaks the unimodality the polish assumes, so what the ends show is
// rounding, not a corner (H near the float64 range is known to a few
// 1e-13 only), and sharpen stops there.
func sharpen(f Func, res Result, a, b float64) Result {
	x, fx := res.X, res.F
	fa, fb := f(a), f(b)
	for b-a > edgeTol*math.Max(math.Abs(x), 1) && math.Max(fa, fb)-fx > cornerSlack*math.Abs(fx) {
		u := x + cg*(b-x)
		if x-a > b-x {
			u = x - cg*(x-a)
		}
		fu := f(u)
		res.Evals++
		switch {
		case fu < fx && u < x:
			b, fb, x, fx = x, fx, u, fu
		case fu < fx:
			a, fa, x, fx = x, fx, u, fu
		case u < x && fu <= fa:
			a, fa = u, fu
		case u > x && fu <= fb:
			b, fb = u, fu
		default:
			res.X, res.F = x, fx
			return res
		}
	}
	res.X, res.F = x, fx
	return res
}

// finiteEdge bisects between a point in, where f is finite, and a point
// out, where it is +Inf, until they are edgeTol apart (relative, with an
// absolute floor at |x| < 1), and returns the finite end.
func finiteEdge(f Func, in, out float64) float64 {
	for math.Abs(out-in) > edgeTol*math.Max(math.Abs(in), 1) {
		mid := in + (out-in)/2
		if math.IsInf(f(mid), 1) {
			out = mid
		} else {
			in = mid
		}
	}
	return in
}

// Shared error values of the grid refinement and the period search
// (allocated once; the overflow-clip rejection fires on every deep-tail
// P probe).
var (
	errGridPoints = errors.New("optimize: GridRefine needs at least 3 grid points")
	errGridAllInf = errors.New("optimize: objective is +Inf over the whole grid")
)
