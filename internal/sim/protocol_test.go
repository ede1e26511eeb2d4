package sim

import (
	"math"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/speedup"
	"amdahlyd/internal/stats"
	"amdahlyd/internal/xmath"
)

func heraModel(t testing.TB, sc costmodel.Scenario, alpha float64) core.Model {
	t.Helper()
	res, err := sc.Calibrate(512, 300, 15.4, 3600)
	if err != nil {
		t.Fatal(err)
	}
	return core.Model{
		LambdaInd:    1.69e-8,
		FailStopFrac: 0.2188,
		SilentFrac:   0.7812,
		Res:          res,
		Profile:      speedup.Amdahl{Alpha: alpha},
	}
}

func TestNewProtocolValidation(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	if _, err := NewProtocol(m, 0, 512); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := NewProtocol(m, 100, 0); err == nil {
		t.Error("P=0 accepted")
	}
	bad := m
	bad.LambdaInd = -1
	if _, err := NewProtocol(bad, 100, 512); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestErrorFreeRunIsDeterministic(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	m.LambdaInd = 0
	pr, err := NewProtocol(m, 6000, 512)
	if err != nil {
		t.Fatal(err)
	}
	st, err := pr.SimulateRun(100, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	wantPattern := 6000 + 15.4 + 300
	if !xmath.EqualWithin(st.MeanPatternTime(), wantPattern, 1e-12, 0) {
		t.Errorf("error-free pattern time %g, want %g", st.MeanPatternTime(), wantPattern)
	}
	if st.FailStops != 0 || st.SilentDetections != 0 || st.Recoveries != 0 {
		t.Errorf("error-free run recorded errors: %+v", st)
	}
}

// The central validation of Proposition 1: the Monte-Carlo mean pattern
// time must match the exact analytical formula within the confidence
// interval, on every scenario.
func TestSimulationValidatesProposition1(t *testing.T) {
	for _, sc := range costmodel.AllScenarios {
		m := heraModel(t, sc, 0.1)
		// Crank the rate so errors are frequent enough to test the error
		// paths thoroughly within a small number of patterns.
		m.LambdaInd = 4e-7
		tt, p := 3000.0, 512.0
		exact := m.ExactPatternTime(tt, p)

		res, err := Simulate(m, tt, p, RunConfig{Runs: 300, Patterns: 60, Seed: 42})
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		mean := res.MeanPatternTime.Mean
		ci := res.MeanPatternTime.CI95
		if math.Abs(mean-exact) > 3*ci {
			t.Errorf("%v: simulated E = %g ± %g, exact = %g (|Δ| > 3·CI95)",
				sc, mean, ci, exact)
		}
		if res.FailStops == 0 || res.SilentDetections == 0 {
			t.Errorf("%v: error paths not exercised: %+v", sc, res)
		}
	}
}

func TestSimulationValidatesProposition1FailStopOnly(t *testing.T) {
	m := heraModel(t, costmodel.Scenario3, 0.1)
	m.FailStopFrac, m.SilentFrac = 1, 0
	m.LambdaInd = 5e-7
	tt, p := 4000.0, 512.0
	exact := m.ExactPatternTime(tt, p)
	res, err := Simulate(m, tt, p, RunConfig{Runs: 300, Patterns: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanPatternTime.Mean-exact) > 3*res.MeanPatternTime.CI95 {
		t.Errorf("fail-stop-only: simulated %g ± %g vs exact %g",
			res.MeanPatternTime.Mean, res.MeanPatternTime.CI95, exact)
	}
	if res.SilentDetections != 0 {
		t.Error("silent detections recorded with s = 0")
	}
}

func TestSimulationValidatesProposition1SilentOnly(t *testing.T) {
	m := heraModel(t, costmodel.Scenario3, 0.1)
	m.FailStopFrac, m.SilentFrac = 0, 1
	m.LambdaInd = 5e-7
	tt, p := 4000.0, 512.0
	exact := m.ExactPatternTime(tt, p)
	res, err := Simulate(m, tt, p, RunConfig{Runs: 300, Patterns: 60, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanPatternTime.Mean-exact) > 3*res.MeanPatternTime.CI95 {
		t.Errorf("silent-only: simulated %g ± %g vs exact %g",
			res.MeanPatternTime.Mean, res.MeanPatternTime.CI95, exact)
	}
	if res.FailStops != 0 {
		t.Error("fail-stops recorded with f = 0")
	}
}

func TestSimulatedOverheadMatchesModel(t *testing.T) {
	// At Hera's true parameters and the first-order optimal pattern, the
	// simulated overhead must reproduce the model overhead (≈0.11, the
	// headline number of Fig. 2).
	m := heraModel(t, costmodel.Scenario1, 0.1)
	fo, err := m.FirstOrder()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(m, fo.T, fo.P, RunConfig{Runs: 200, Patterns: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	model := m.Overhead(fo.T, fo.P)
	if math.Abs(res.Overhead.Mean-model) > 4*res.Overhead.CI95 {
		t.Errorf("simulated overhead %g ± %g vs model %g",
			res.Overhead.Mean, res.Overhead.CI95, model)
	}
	if res.Overhead.Mean < 0.1 || res.Overhead.Mean > 0.125 {
		t.Errorf("overhead %g outside the paper's ≈0.11 band", res.Overhead.Mean)
	}
}

func TestSimulateDeterministicAcrossWorkerCounts(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	m.LambdaInd = 1e-6
	r1, err := Simulate(m, 2000, 512, RunConfig{Runs: 40, Patterns: 20, Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Simulate(m, 2000, 512, RunConfig{Runs: 40, Patterns: 20, Seed: 9, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Overhead.Mean != r8.Overhead.Mean || r1.FailStops != r8.FailStops {
		t.Error("results depend on worker count: per-run streams are not deterministic")
	}
}

func TestSimulateSeedSensitivity(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	m.LambdaInd = 1e-6
	a, _ := Simulate(m, 2000, 512, RunConfig{Runs: 20, Patterns: 20, Seed: 1})
	b, _ := Simulate(m, 2000, 512, RunConfig{Runs: 20, Patterns: 20, Seed: 2})
	if a.Overhead.Mean == b.Overhead.Mean {
		t.Error("different seeds produced identical results")
	}
}

func TestSimulateConfigValidation(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	if _, err := Simulate(m, 2000, 512, RunConfig{Runs: -1}); err == nil {
		t.Error("negative run count accepted")
	}
	if _, err := Simulate(m, 2000, 512.5, RunConfig{Machine: true, Runs: 1, Patterns: 1}); err == nil {
		t.Error("fractional P accepted for machine simulation")
	}
}

func TestPatternStatsEdgeCases(t *testing.T) {
	var st PatternStats
	if !math.IsNaN(st.MeanPatternTime()) {
		t.Error("mean of zero patterns should be NaN")
	}
	if !math.IsNaN(st.Overhead(100, 0.1)) {
		t.Error("overhead of zero patterns should be NaN")
	}
}

// Increasing the error rate must increase both the simulated pattern time
// and the error counts — a coarse end-to-end sanity property.
func TestRateMonotonicityEndToEnd(t *testing.T) {
	m := heraModel(t, costmodel.Scenario3, 0.1)
	cfg := RunConfig{Runs: 50, Patterns: 50, Seed: 5}
	m.LambdaInd = 2e-7
	lo, err := Simulate(m, 3000, 512, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.LambdaInd = 2e-6
	hi, err := Simulate(m, 3000, 512, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hi.MeanPatternTime.Mean <= lo.MeanPatternTime.Mean {
		t.Error("10× error rate did not increase pattern time")
	}
	if hi.FailStops+hi.SilentDetections <= lo.FailStops+lo.SilentDetections {
		t.Error("10× error rate did not increase error counts")
	}
}

// The simulated distribution of silent detections per pattern must match
// the model probability q = (1−qf)·qs at small rates... more simply: the
// fraction of patterns requiring at least one retry matches theory within
// tolerance. We check the mean number of verifications consumed per
// successful pattern against e^{λs·T} in a silent-only setting.
func TestSilentRetryCountMatchesGeometry(t *testing.T) {
	m := heraModel(t, costmodel.Scenario3, 0.1)
	m.FailStopFrac, m.SilentFrac = 0, 1
	m.LambdaInd = 2e-6
	tt, p := 3000.0, 512.0
	_, ls := m.Rates(p)
	pr, err := NewProtocol(m, tt, p)
	if err != nil {
		t.Fatal(err)
	}
	var st PatternStats
	r := rng.New(11)
	const patterns = 20000
	for i := 0; i < patterns; i++ {
		pr.SimulatePattern(r, &st)
	}
	// Attempts per pattern are geometric with success prob e^{−λsT}:
	// mean retries = e^{λsT} − 1.
	wantRetries := math.Expm1(ls * tt)
	gotRetries := float64(st.SilentDetections) / float64(st.Patterns)
	if math.Abs(gotRetries-wantRetries)/wantRetries > 0.05 {
		t.Errorf("retries per pattern = %g, want %g", gotRetries, wantRetries)
	}
}

// Kolmogorov–Smirnov check on the simulator's fail-stop inter-arrival
// sampling: a window far longer than any draw makes failStopIn return
// the raw exponential draw.
func TestProtocolFailStopSamplingIsExponential(t *testing.T) {
	m := heraModel(t, costmodel.Scenario3, 0.1)
	m.FailStopFrac, m.SilentFrac = 1, 0
	m.LambdaInd = 1e-6
	pr, err := NewProtocol(m, 1e3, 512)
	if err != nil {
		t.Fatal(err)
	}
	lf, _ := m.Rates(512)
	r := rng.New(13)
	xs := make([]float64, 0, 3000)
	for len(xs) < 3000 {
		if lost, struck := pr.failStopIn(1e12, r); struck {
			xs = append(xs, lost)
		}
	}
	res, err := stats.KSTestExponential(xs, lf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.01) {
		t.Errorf("fail-stop arrivals rejected as exponential: p=%g", res.PValue)
	}
}

// failStopOnlyProtocol returns a pattern simulator on P = 512 whose
// only error source is fail-stop, at an individual rate that puts the
// platform rate λf near lf.
func failStopOnlyProtocol(t *testing.T, lf float64) *Protocol {
	t.Helper()
	m := heraModel(t, costmodel.Scenario3, 0.1)
	m.FailStopFrac, m.SilentFrac = 1, 0
	m.LambdaInd = lf / 512
	pr, err := NewProtocol(m, 1e3, 512)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// The window sampler behind every fail-stop draw strikes a window of
// length W with probability 1 − e^{−λf·W}, at an offset inside it.
func TestFailStopInStrikeProbability(t *testing.T) {
	pr := failStopOnlyProtocol(t, 1e-4)
	window := 5000.0
	r := rng.New(7)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if off, struck := pr.failStopIn(window, r); struck {
			hits++
			if off < 0 || off >= window {
				t.Fatalf("offset %g outside window", off)
			}
		}
	}
	want := -math.Expm1(-pr.lambdaF * window)
	got := float64(hits) / n
	if math.Abs(got-want) > 0.005 {
		t.Errorf("strike probability = %g, want %g", got, want)
	}
}

// Conditioned on striking, the offset follows the truncated exponential:
// its mean is Proposition 1's lost time E_lost(W) = 1/λf − W/(e^{λf·W}−1).
func TestFailStopInConditionalMean(t *testing.T) {
	pr := failStopOnlyProtocol(t, 2e-4)
	window := 8000.0
	r := rng.New(9)
	var acc stats.Welford
	for i := 0; i < 400000; i++ {
		if off, struck := pr.failStopIn(window, r); struck {
			acc.Add(off)
		}
	}
	lf := pr.lambdaF
	want := 1/lf - window/math.Expm1(lf*window)
	if math.Abs(acc.Mean()-want)/want > 0.01 {
		t.Errorf("conditional mean offset = %g, want %g", acc.Mean(), want)
	}
}
