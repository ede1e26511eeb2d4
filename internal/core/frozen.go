package core

import "math"

// Frozen is a Model compiled at a fixed processor count P: every
// loop-invariant quantity of Proposition 1 and of the first-order
// expansion — the platform rates λf_P and λs_P, the resilience costs C_P,
// R_P, V_P, the downtime D, the renewal constant k = 1/λf + D, the
// exponentials e^{λf·C} and e^{λf·R}, the error-free overhead H(P) and the
// Theorem 1 constants — is evaluated once at construction. The per-call
// cost of PatternTime, PatternTimeDerivs and Overhead is then two expm1
// calls and a handful of multiplies, with zero allocations, which is
// what the inner T-minimization of the nested (T, P) optimizer and the
// Monte-Carlo pricing loops actually pay.
//
// Frozen is the compiled-kernel counterpart of Model (the specification):
// use Model for one-off evaluations and validation, Freeze once per P for
// any loop that holds P fixed. Every method with a Model counterpart
// reproduces it bit-exactly (the arithmetic is performed in the same
// order on the same intermediate values); the rest (the first-order
// expansion, the speedup, the derivatives) exist only here.
type Frozen struct {
	// P is the processor count the evaluator was compiled for (clamped
	// to 1 like Model.Rates does).
	P float64
	// LambdaF and LambdaS are the platform-level rates λf_P and λs_P.
	LambdaF, LambdaS float64
	// C, R, V are C_P, R_P, V_P; D is the downtime.
	C, R, V, D float64

	// neverLimit records that the λf→0 limit branch is unreachable for
	// every t > 0: the branch condition λf·(C+R+V+t+D) < 1e-13 is
	// monotone non-decreasing in t (rounded multiplication and addition
	// by non-negative values preserve order), so when it already fails at
	// t = 0 the per-call test can be skipped without changing any result.
	neverLimit bool

	crv     float64 // C + R + V, the λf→0 branch test constant
	k       float64 // 1/λf + D (+Inf when λf = 0; the branch never uses it)
	expC    float64 // e^{λf·C}
	expR    float64 // e^{λf·R}
	hP      float64 // H(P) = Profile.Overhead(P)
	cv      float64 // C + V, the Theorem 1 numerator
	effRate float64 // λf/2 + λs, the Theorem 1 denominator
	// First-order expansion constants (FirstOrderPatternTime).
	foVCRD   float64 // V + C + R + D
	foVR     float64 // V + R
	foConstC float64 // λf·C·(C/2 + R + V + D)
	foConstV float64 // λf·V·(V + R + D)
}

// Freeze compiles the model at processor count p. It does not validate;
// callers that accept untrusted models should call Validate first.
func (m Model) Freeze(p float64) Frozen {
	if p < 1 {
		p = 1
	}
	lf, ls := m.Rates(p)
	c := m.Res.Checkpoint.At(p)
	r := m.Res.Recovery.At(p)
	v := m.Res.Verification.At(p)
	d := m.Res.Downtime
	crv := c + r + v
	return Frozen{
		P:       p,
		LambdaF: lf,
		LambdaS: ls,
		C:       c,
		R:       r,
		V:       v,
		D:       d,

		neverLimit: !(lf*(crv+d) < 1e-13),

		crv:     crv,
		k:       1/lf + d,
		expC:    math.Exp(lf * c),
		expR:    math.Exp(lf * r),
		hP:      m.Profile.Overhead(p),
		cv:      c + v,
		effRate: lf/2 + ls,

		foVCRD:   v + c + r + d,
		foVR:     v + r,
		foConstC: lf * c * (c/2 + r + v + d),
		foConstV: lf * v * (v + r + d),
	}
}

// PatternTime evaluates Proposition 1 (Equation (2)) at the compiled P,
// bit-exactly equal to Model.ExactPatternTime(t, P). It is the one
// Proposition 1 kernel: Overhead calls it, and PatternTimeDerivs shares
// its branch code.
func (f *Frozen) PatternTime(t float64) float64 {
	e, _, _, _ := f.pattern(t)
	return e
}

// pattern is the branch code of PatternTime and PatternTimeDerivs. Beside
// E(t) it returns what the derivatives are built from: on the regular
// branch g = e^{λf(C+t+V)+λs·t} − 1 and q = E/k, the bracket that E is k
// times; on the λf→0 limit branch (limit set) x = e^{λs·t} in g.
func (f *Frozen) pattern(t float64) (e, g, q float64, limit bool) {
	if !(t > 0) {
		return math.Inf(1), 0, 0, false
	}
	lsT := f.LambdaS * t
	if !f.neverLimit && f.LambdaF*(f.crv+t+f.D) < 1e-13 {
		// λf so small that λf·(everything) is far below the cancellation
		// floor: use the exact limit instead of the 0/0 form.
		g, limit = math.Exp(lsT), true
		e = f.C + (t+f.V)*g + math.Expm1(lsT)*f.R
	} else {
		// e^{λf(C+T+V)+λsT} − 1, kept in expm1 form for small exponents.
		g = math.Expm1(f.LambdaF*(f.C+t+f.V) + lsT)
		shrink := math.Expm1(lsT) // e^{λsT} − 1 >= 0
		q = f.expR*g - f.expC*shrink
		e = f.k * q
	}
	// Overflow gives NaN in either branch (Inf − Inf in the regular one,
	// Inf·0 in the limit one when R = 0); the pattern time is +Inf there.
	if math.IsNaN(e) {
		e = math.Inf(1)
	}
	return e, g, q, limit
}

// PatternTimeDerivs returns E(t), bit-identical to PatternTime(t),
// together with its first two derivatives in dimensionless form,
// r = t·E′/E (the elasticity of E) and s = t²·E″/E, from the same two
// exponentials. On the regular branch, with
// A = k·e^{λf·R}·e^{λf(C+t+V)+λs·t} and Δ = e^{λf·R} − e^{λf·C},
//
//	E′ = λf·A + λs·(E + k·Δ)
//	E″ = (λf² + 2λf·λs)·A + λs²·(E + k·Δ)
//
// and on the λf→0 limit branch, with x = e^{λs·t},
//
//	E′ = x·(1 + λs·(t+V+R))
//	E″ = λs·x·(2 + λs·(t+V+R)).
//
// E + k·Δ = A − k·e^{λf·C}·e^{λs·t} is never negative, so no term
// cancels another. The regular branch forms A/E and k·Δ/E with k
// cancelled: A alone overflows when k is within e^{λf(C+t+V)+λs·t} of
// the float64 range (a downtime near 1e308) while E, r and s are
// finite. Δ is exactly 0 when R = C, as on every platform of the paper;
// otherwise it costs one more expm1. Where E is +Inf (t ≤ 0, NaN or
// overflow) r and s are +Inf too.
func (f *Frozen) PatternTimeDerivs(t float64) (e, r, s float64) {
	e, g, q, limit := f.pattern(t)
	if math.IsInf(e, 1) {
		return e, e, e
	}
	lsT := f.LambdaS * t
	if limit {
		w := f.LambdaS * (t + f.V + f.R)
		tx := t * g / e // t·x/E ≤ 1
		return e, tx * (1 + w), tx * lsT * (2 + w)
	}
	// λf·t·A/E, in an order whose partial products stay below it.
	lfT := f.LambdaF * t
	a := lfT / q * f.expR * (1 + g)
	b := lsT // λs·t·(E + k·Δ)/E
	if f.R != f.C && lsT > 0 {
		// The clamp absorbs rounding; with λs = 0 the term drops out.
		b = lsT * math.Max(0, 1+f.expC*math.Expm1(f.LambdaF*(f.R-f.C))/q)
	}
	return e, a + b, a*(lfT+2*lsT) + lsT*b
}

// Overhead returns H(T, P) = E(PATTERN)/T · H(P) at the compiled P,
// bit-exactly equal to Model.Overhead(t, P). An infinite pattern time
// passes through unchanged (at t = +Inf the quotient would be NaN). The
// call into PatternTime is priced in DESIGN.md, "Evaluator
// architecture".
func (f *Frozen) Overhead(t float64) float64 {
	e := f.PatternTime(t)
	if math.IsInf(e, 1) {
		return e
	}
	return e / t * f.hP
}

// FirstOrderPatternTime evaluates the second-order Taylor expansion of
// E(PATTERN) used in the proof of Theorem 1 (lower-order terms dropped)
// at the compiled P:
//
//	E ≈ T + V + C + (λf/2 + λs)·T² + λf·T·(V+C+R+D) + λs·T·(V+R)
//	  + λf·C·(C/2+R+V+D) + λf·V·(V+R+D)
func (f *Frozen) FirstOrderPatternTime(t float64) float64 {
	if t <= 0 {
		return math.Inf(1)
	}
	return t + f.V + f.C +
		f.effRate*t*t +
		f.LambdaF*t*f.foVCRD +
		f.LambdaS*t*f.foVR +
		f.foConstC +
		f.foConstV
}

// overflowExponent sits just above log(MaxFloat64) ≈ 709.78: past it
// Expm1 and Exp overflow whatever rounding the exponent carries.
const overflowExponent = 710

// OverflowPeriod returns the period t at which the fail-stop exponent
// λf·(C+t+V) + λs·t reaches overflowExponent. Overhead is +Inf at every
// period beyond it: the exponent is monotone non-decreasing in t even
// under rounding (every operation is a correctly-rounded add or multiply
// by a non-negative constant), Expm1 of it overflows, and the pattern
// time is then +Inf whatever the silent-error term does (k, e^{λf·R} > 0,
// and the Inf−Inf case is mapped to +Inf too). In the λf→0 limit branch
// e^{λs·t} overflows at the same point, which gives +Inf too. The result
// is +Inf when both rates are zero, negative when no period is finite,
// and NaN when a rate is +Inf (every period overflows then too). The
// period minimizer clips its bracket here, so no grid point is spent on
// the overflow plateau.
func (f *Frozen) OverflowPeriod() float64 {
	return (overflowExponent - f.LambdaF*f.cv) / (f.LambdaF + f.LambdaS)
}

// OptimalPeriod returns Theorem 1's first-order optimal period T*_P at
// the compiled P, bit-exactly equal to Model.OptimalPeriodFixedP(P).
func (f *Frozen) OptimalPeriod() float64 {
	if f.effRate <= 0 {
		return math.Inf(1) // no errors: checkpoint never
	}
	return math.Sqrt(f.cv / f.effRate)
}

// ErrorFreeOverhead returns H(T, P) with both error rates forced to zero,
// bit-exactly equal to Model.ErrorFreeOverhead(t, P).
func (f *Frozen) ErrorFreeOverhead(t float64) float64 {
	if t <= 0 {
		return math.Inf(1)
	}
	return (t + f.cv) / t * f.hP
}

// ProfileOverhead returns the cached error-free execution overhead H(P).
func (f *Frozen) ProfileOverhead() float64 { return f.hP }

// Speedup returns the expected pattern speedup S(T, P) = 1/H(T, P).
func (f *Frozen) Speedup(t float64) float64 {
	return 1 / f.Overhead(t)
}
