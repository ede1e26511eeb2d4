// Package xmath provides the scalar math helpers shared by the
// analytical model, the optimizers, the experiment grids and the
// statistics layer: exact float tokens for cache keys, axis grids, a
// compensated sum, and the special functions the statistics layer needs
// (inverse normal CDF, Student-t quantiles, the Kolmogorov distribution,
// the regularized incomplete gamma function) without any dependency
// outside the standard library.
//
// The expm1 forms that keep Proposition 1 stable — λ as small as 1e-12
// while T exceeds 1e7 seconds — are written out inline in internal/core,
// next to the terms they protect.
package xmath

import (
	"math"
	"strconv"
)

// FloatKey encodes a float64 exactly for use inside cache keys: shortest
// hexadecimal form, so two values share a token iff they are the same
// float64 bit pattern (with -0 and +0 collapsed — they are arithmetically
// indistinguishable in every formula here). This is the single canonical
// encoding shared by core.Model.CacheKey, failures.CacheKey and the
// request keys in internal/service; changing it invalidates (never
// aliases) existing keys, as they all embed it.
func FloatKey(v float64) string {
	var buf [32]byte
	return string(AppendFloatKey(buf[:0], v))
}

// AppendFloatKey appends FloatKey's token for v to dst, so a key builder
// can encode every float of a key into one buffer.
func AppendFloatKey(dst []byte, v float64) []byte {
	if v == 0 {
		v = 0 // −0 formats with its sign
	}
	return strconv.AppendFloat(dst, v, 'x', -1, 64)
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}

// Sum is a compensated (Neumaier) accumulator. The zero value is ready to
// use. It keeps full double precision when summing many values of mixed
// magnitude, as happens when accumulating millions of simulated pattern
// durations.
type Sum struct {
	sum float64
	c   float64 // running compensation
}

// Add accumulates v.
func (s *Sum) Add(v float64) {
	t := s.sum + v
	if math.Abs(s.sum) >= math.Abs(v) {
		s.c += (s.sum - t) + v
	} else {
		s.c += (v - t) + s.sum
	}
	s.sum = t
}

// Value returns the compensated total.
func (s *Sum) Value() float64 { return s.sum + s.c }

// EqualWithin reports whether a and b agree within relative tolerance rel
// or absolute tolerance abs (whichever is looser). NaNs are never equal.
func EqualWithin(a, b, rel, abs float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= abs {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= rel*scale
}

// RelDiff returns |a−b| / max(|a|, |b|), or 0 when both are zero.
func RelDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 0
	}
	return math.Abs(a-b) / scale
}

// Linspace returns n points evenly spaced on [lo, hi] inclusive. n must be
// at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("xmath: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi // avoid accumulated rounding at the endpoint
	return out
}

// Logspace returns n points evenly spaced in log scale on [lo, hi]
// inclusive. Both bounds must be positive and n at least 2.
func Logspace(lo, hi float64, n int) []float64 {
	if !(lo > 0) || !(hi > 0) {
		panic("xmath: Logspace needs positive bounds")
	}
	pts := Linspace(math.Log(lo), math.Log(hi), n)
	for i, p := range pts {
		pts[i] = math.Exp(p)
	}
	pts[0], pts[n-1] = lo, hi
	return pts
}
