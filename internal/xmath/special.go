package xmath

import "math"

// NormalQuantile returns the inverse of the standard normal CDF at p,
// using Acklam's rational approximation refined with one Halley step.
// The absolute error after refinement is below 1e-12 across (0, 1).
// It returns ±Inf at p = 0 or 1 and NaN outside [0, 1].
func NormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}

	// Coefficients of Acklam's approximation.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley refinement step against the exact CDF.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// NormalCDF returns the standard normal cumulative distribution at x.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// StudentTQuantile returns the upper-tail two-sided critical value t such
// that P(|T_ν| <= t) = conf for a Student-t variable with ν degrees of
// freedom, using the Cornish–Fisher style expansion of Hill (1970). For
// ν >= 100 the normal quantile is a better-than-1e-4 approximation and is
// used directly. conf must lie in (0, 1).
func StudentTQuantile(conf float64, nu int) float64 {
	if !(conf > 0 && conf < 1) || nu < 1 {
		return math.NaN()
	}
	p := 0.5 + conf/2 // one-sided quantile level
	z := NormalQuantile(p)
	if nu >= 100 {
		return z
	}
	// Exact closed forms for the smallest degrees of freedom, where the
	// asymptotic expansion is weakest.
	switch nu {
	case 1:
		return math.Tan(math.Pi / 2 * conf)
	case 2:
		return z2Quantile(conf)
	}
	n := float64(nu)
	z2 := z * z
	// Peiser/Fisher expansion of the t quantile around the normal one.
	g1 := (z2 + 1) * z / 4
	g2 := ((5*z2+16)*z2 + 3) * z / 96
	g3 := (((3*z2+19)*z2+17)*z2 - 15) * z / 384
	g4 := ((((79*z2+776)*z2+1482)*z2-1920)*z2 - 945) * z / 92160
	return z + g1/n + g2/(n*n) + g3/(n*n*n) + g4/(n*n*n*n)
}

// z2Quantile is the exact two-sided t quantile for 2 degrees of freedom:
// t = sqrt(2/(1−conf²) − 2) rearranged from the closed-form CDF.
func z2Quantile(conf float64) float64 {
	alpha := 1 - conf
	return math.Sqrt(2/(alpha*(2-alpha)) - 2)
}

// KolmogorovCDF returns P(D_n <= d) for the Kolmogorov distribution with
// the asymptotic series K(x) = 1 − 2 Σ (−1)^{k−1} e^{−2k²x²}, where
// x = d·(√n + 0.12 + 0.11/√n) per Stephens' correction. Used by the KS
// goodness-of-fit test in internal/stats.
func KolmogorovCDF(d float64, n int) float64 {
	if d <= 0 {
		return 0
	}
	if n <= 0 {
		return math.NaN()
	}
	sn := math.Sqrt(float64(n))
	x := d * (sn + 0.12 + 0.11/sn)
	if x < 0.2 {
		return 0 // series converges to 0 numerically
	}
	var sum float64
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := math.Exp(-2 * float64(k) * float64(k) * x * x)
		sum += sign * term
		if term < 1e-16 {
			break
		}
		sign = -sign
	}
	return Clamp(1-2*sum, 0, 1)
}
