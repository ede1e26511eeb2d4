package stats

import (
	"math"
	"sort"

	"amdahlyd/internal/xmath"
)

// KSResult reports the outcome of a one-sample Kolmogorov–Smirnov test.
type KSResult struct {
	Statistic float64 // D_n, the sup-norm distance between EDF and CDF
	PValue    float64 // asymptotic p-value with Stephens' correction
	N         int
}

// Reject reports whether the null hypothesis is rejected at level alpha.
func (k KSResult) Reject(alpha float64) bool { return k.PValue < alpha }

// KSTest runs a one-sample KS test of xs against the continuous CDF.
// The input is not modified.
func KSTest(xs []float64, cdf func(float64) float64) (KSResult, error) {
	n := len(xs)
	if n == 0 {
		return KSResult{}, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var d float64
	for i, x := range sorted {
		f := cdf(x)
		dPlus := float64(i+1)/float64(n) - f
		dMinus := f - float64(i)/float64(n)
		if dPlus > d {
			d = dPlus
		}
		if dMinus > d {
			d = dMinus
		}
	}
	p := 1 - xmath.KolmogorovCDF(d, n)
	return KSResult{Statistic: d, PValue: p, N: n}, nil
}

// KSTestExponential tests xs against an exponential distribution with the
// given rate. This is the oracle the failure-injection tests use to verify
// that simulated inter-arrival times match the model of Section II.
func KSTestExponential(xs []float64, rate float64) (KSResult, error) {
	return KSTest(xs, func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return -math.Expm1(-rate * x)
	})
}
