// Package stats provides the statistics substrate for the Monte-Carlo
// experiments: online moment accumulation, confidence intervals,
// quantiles, bootstrap resampling, and Kolmogorov–Smirnov and chi-square
// goodness-of-fit tests. The simulation study in the paper reports means
// over 500 runs; this package supplies those means together with
// uncertainty estimates so the reports can state how tight the
// reproduction is.
package stats

import (
	"errors"
	"math"
	"sort"

	"amdahlyd/internal/rng"
	"amdahlyd/internal/xmath"
)

// ErrEmpty is returned when a statistic is requested from no data.
var ErrEmpty = errors.New("stats: empty sample")

// Welford accumulates count, mean and variance online in a numerically
// stable way (Welford's algorithm). The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance, or NaN for fewer than
// two observations: a single run carries no spread information, and a
// zero here would let single-run campaigns report zero-width confidence
// intervals as if the estimate were exact. report.Fmt renders NaN as "-".
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation (NaN for n < 2).
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean (NaN for n < 2).
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// Min returns the smallest observation (0 when empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// CI returns the half-width of the two-sided confidence interval for the
// mean at the given confidence level, using the Student-t distribution.
// With fewer than two observations no interval exists and the result is
// NaN (rendered "-" by report.Fmt), matching Variance/StdErr.
func (w *Welford) CI(conf float64) float64 {
	if w.n < 2 {
		return math.NaN()
	}
	tq := xmath.StudentTQuantile(conf, int(w.n-1))
	return tq * w.StdErr()
}

// Summary is a value snapshot of an accumulator, convenient for reports.
type Summary struct {
	N      int64
	Mean   float64
	StdDev float64
	StdErr float64
	Min    float64
	Max    float64
	CI95   float64
}

// Summarize captures the accumulator state.
func (w *Welford) Summarize() Summary {
	return Summary{
		N:      w.n,
		Mean:   w.mean,
		StdDev: w.StdDev(),
		StdErr: w.StdErr(),
		Min:    w.min,
		Max:    w.max,
		CI95:   w.CI(0.95),
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R default). The
// input is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile level outside [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1], nil
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 0.5-quantile.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// BootstrapCI returns a percentile bootstrap confidence interval for the
// mean of xs at the given confidence level, using resamples drawn from r.
func BootstrapCI(xs []float64, conf float64, resamples int, r *rng.Rand) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	if resamples < 10 {
		return 0, 0, errors.New("stats: need at least 10 bootstrap resamples")
	}
	means := make([]float64, resamples)
	for b := range means {
		var s xmath.Sum
		for i := 0; i < len(xs); i++ {
			s.Add(xs[r.Intn(len(xs))])
		}
		means[b] = s.Value() / float64(len(xs))
	}
	alpha := (1 - conf) / 2
	lo, _ = Quantile(means, alpha)
	hi, _ = Quantile(means, 1-alpha)
	return lo, hi, nil
}
