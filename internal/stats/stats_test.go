package stats

import (
	"math"
	"testing"

	"amdahlyd/internal/rng"
	"amdahlyd/internal/xmath"
)

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != int64(len(xs)) {
		t.Errorf("N = %d", w.N())
	}
	if w.Mean() != 5 {
		t.Errorf("mean = %g, want 5", w.Mean())
	}
	// Unbiased variance of this classic dataset is 32/7.
	if !xmath.EqualWithin(w.Variance(), 32.0/7, 1e-12, 0) {
		t.Errorf("variance = %g, want %g", w.Variance(), 32.0/7)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %g/%g", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	// Fewer than two observations define no spread: every spread statistic
	// must be NaN (not zero — a zero would read as an exact estimate) so
	// report.Fmt renders it as "-".
	var w Welford
	if !math.IsNaN(w.Variance()) || !math.IsNaN(w.StdErr()) {
		t.Errorf("empty accumulator spread = (%g, %g), want NaN", w.Variance(), w.StdErr())
	}
	if !math.IsNaN(w.CI(0.95)) {
		t.Errorf("CI of 0 samples = %g, want NaN", w.CI(0.95))
	}
	w.Add(3)
	if w.Mean() != 3 {
		t.Errorf("single observation mean = %g, want 3", w.Mean())
	}
	if !math.IsNaN(w.Variance()) || !math.IsNaN(w.StdDev()) || !math.IsNaN(w.StdErr()) {
		t.Error("single observation should have NaN spread")
	}
	if !math.IsNaN(w.CI(0.95)) {
		t.Errorf("CI of 1 sample = %g, want NaN", w.CI(0.95))
	}
	s := w.Summarize()
	if s.N != 1 || s.Mean != 3 || !math.IsNaN(s.StdDev) || !math.IsNaN(s.StdErr) || !math.IsNaN(s.CI95) {
		t.Errorf("single observation summary = %+v, want NaN spread fields", s)
	}
	w.Add(5)
	if w.Variance() != 2 {
		t.Errorf("variance = %g, want 2", w.Variance())
	}
}

func TestCICoverage(t *testing.T) {
	// 95% CI computed from normal samples should cover the true mean
	// roughly 95% of the time.
	r := rng.New(123)
	covered := 0
	const trials, perTrial = 400, 40
	for i := 0; i < trials; i++ {
		var w Welford
		for j := 0; j < perTrial; j++ {
			w.Add(r.Normal()*2 + 10)
		}
		half := w.CI(0.95)
		if math.Abs(w.Mean()-10) <= half {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.91 || rate > 0.99 {
		t.Errorf("CI coverage = %g, want ≈0.95", rate)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	med, err := Median(xs)
	if err != nil || med != 3 {
		t.Errorf("median = %g", med)
	}
	q0, _ := Quantile(xs, 0)
	q1, _ := Quantile(xs, 1)
	if q0 != 1 || q1 != 5 {
		t.Errorf("extreme quantiles %g, %g", q0, q1)
	}
	q25, _ := Quantile(xs, 0.25)
	if q25 != 2 {
		t.Errorf("q25 = %g, want 2", q25)
	}
	// Interpolation between order statistics.
	q, _ := Quantile([]float64{0, 10}, 0.3)
	if q != 3 {
		t.Errorf("interpolated quantile = %g, want 3", q)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("out-of-range level should error")
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty input should error")
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestBootstrapCI(t *testing.T) {
	r := rng.New(7)
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = r.Normal() + 5
	}
	lo, hi, err := BootstrapCI(xs, 0.95, 500, r)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= hi {
		t.Fatalf("degenerate interval [%g, %g]", lo, hi)
	}
	if lo > 5 || hi < 5 {
		t.Errorf("interval [%g, %g] misses true mean 5", lo, hi)
	}
	if hi-lo > 0.5 {
		t.Errorf("interval [%g, %g] implausibly wide", lo, hi)
	}
	if _, _, err := BootstrapCI(nil, 0.95, 100, r); err == nil {
		t.Error("empty input should error")
	}
	if _, _, err := BootstrapCI(xs, 0.95, 5, r); err == nil {
		t.Error("too few resamples should error")
	}
}

func TestKSExponentialAcceptsExponential(t *testing.T) {
	r := rng.New(99)
	rate := 1e-6
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.Exp(rate)
	}
	res, err := KSTestExponential(xs, rate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.01) {
		t.Errorf("true exponential rejected: D=%g p=%g", res.Statistic, res.PValue)
	}
}

func TestKSExponentialRejectsWrongRate(t *testing.T) {
	r := rng.New(100)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.Exp(1.0)
	}
	res, err := KSTestExponential(xs, 2.0) // wrong rate by 2×
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.01) {
		t.Errorf("wrong-rate exponential accepted: D=%g p=%g", res.Statistic, res.PValue)
	}
}

func TestKSRejectsNonExponential(t *testing.T) {
	r := rng.New(101)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = math.Abs(r.Normal()) // half-normal, not exponential
	}
	res, err := KSTestExponential(xs, 1/math.Sqrt(2/math.Pi))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.01) {
		t.Error("half-normal accepted as exponential")
	}
}

func TestKSUniform(t *testing.T) {
	r := rng.New(55)
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	res, err := KSTest(xs, func(x float64) float64 { return xmath.Clamp(x, 0, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.01) {
		t.Errorf("uniform sample rejected: p=%g", res.PValue)
	}
}

func TestKSEmpty(t *testing.T) {
	if _, err := KSTest(nil, func(float64) float64 { return 0 }); err == nil {
		t.Error("empty KS input should error")
	}
}
