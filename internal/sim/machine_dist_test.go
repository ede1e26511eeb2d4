package sim

import (
	"errors"
	"math"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/speedup"
)

// testModel builds a model from a platform row, like the experiment
// drivers do, so the goldens match fingerprints captured through
// experiments.BuildModel.
func testModel(t testing.TB, pl platform.Platform, sc costmodel.Scenario, alpha, downtime float64) core.Model {
	t.Helper()
	res, err := sc.Calibrate(pl.Processors, pl.CheckpointCost, pl.VerificationCost, downtime)
	if err != nil {
		t.Fatal(err)
	}
	return core.Model{
		LambdaInd:    pl.LambdaInd,
		FailStopFrac: pl.FailStopFraction,
		SilentFrac:   pl.SilentFraction,
		Res:          res,
		Profile:      speedup.Amdahl{Alpha: alpha},
	}
}

// Golden pin of the exponential machine simulator: fingerprints captured
// from the pre-Distribution implementation. The renewal-clock refactor
// must keep this path bit-identical ("determinism tests" of the issue).
func TestMachineExponentialGoldenPinned(t *testing.T) {
	m := testModel(t, platform.Hera(), costmodel.Scenario1, 0.1, 3600)
	mc, err := NewMachine(m, 6240, 219)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mc.SimulateRun(400, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if st.Patterns != 400 || st.FailStops != 5 || st.SilentDetections != 5 || st.Recoveries != 10 {
		t.Errorf("counts = %+v, want patterns=400 fs=5 sd=5 rec=10", st)
	}
	if math.Float64bits(st.Elapsed) != math.Float64bits(0x1.3f7fc3996b0f1p+21) {
		t.Errorf("elapsed = %x, want %x", st.Elapsed, 0x1.3f7fc3996b0f1p+21)
	}

	// A hotter configuration exercises the downtime/recovery clock paths.
	pl := platform.Hera().WithLambda(2e-6)
	m2 := testModel(t, pl, costmodel.Scenario1, 0.1, 360)
	mc2, err := NewMachine(m2, 900, 64)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := mc2.SimulateRun(300, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Patterns != 300 || st2.FailStops != 10 || st2.SilentDetections != 25 || st2.Recoveries != 35 {
		t.Errorf("hot counts = %+v, want patterns=300 fs=10 sd=25 rec=35", st2)
	}
	if math.Float64bits(st2.Elapsed) != math.Float64bits(0x1.36b04c54c335bp+18) {
		t.Errorf("hot elapsed = %x, want %x", st2.Elapsed, 0x1.36b04c54c335bp+18)
	}
}

// Golden pin of the renewal (non-exponential) machine simulator: a fold
// of every run's elapsed-time bits and event counts over Weibull
// campaigns hot enough that fail-stops restart the clocks many times.
// It catches any reordering of the clock arithmetic, such as shifting a
// pending arrival to (pause + t) − now instead of pause + (t − now).
func TestMachineRenewalGoldenPinned(t *testing.T) {
	fold := uint64(14695981039346656037)
	var total PatternStats
	for _, sc := range []costmodel.Scenario{costmodel.Scenario5, costmodel.Scenario6} {
		m := testModel(t, platform.Hera(), sc, 0.1, 3600)
		for _, shape := range []float64{0.5, 0.7, 0.9} {
			d, err := failures.NewWeibullMTBF(shape, 1/m.LambdaInd)
			if err != nil {
				t.Fatal(err)
			}
			mc, err := NewMachineDist(m, 4558.08, 707, d)
			if err != nil {
				t.Fatal(err)
			}
			master := rng.New(31)
			for i := uint64(0); i < 40; i++ {
				st, err := mc.SimulateRun(60, master.Split(i))
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range []uint64{math.Float64bits(st.Elapsed),
					uint64(st.FailStops), uint64(st.SilentDetections), uint64(st.Recoveries)} {
					fold = (fold ^ v) * 1099511628211
				}
				total.FailStops += st.FailStops
				total.SilentDetections += st.SilentDetections
				total.Recoveries += st.Recoveries
			}
		}
	}
	if total.FailStops != 2338 || total.SilentDetections != 5019 || total.Recoveries != 7357 {
		t.Errorf("totals fs=%d sd=%d rec=%d, want fs=2338 sd=5019 rec=7357",
			total.FailStops, total.SilentDetections, total.Recoveries)
	}
	if fold != 0xd4de309238b59ba4 {
		t.Errorf("fold = %#x, want %#x", fold, uint64(0xd4de309238b59ba4))
	}
}

func TestNewMachineDistValidation(t *testing.T) {
	m := testModel(t, platform.Hera(), costmodel.Scenario1, 0.1, 3600)
	if _, err := NewMachineDist(m, 6240, 219, nil); err == nil {
		t.Error("nil distribution accepted")
	}
	d, err := failures.NewWeibullMTBF(0.7, 1/m.LambdaInd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMachineDist(m, -1, 219, d); err == nil {
		t.Error("negative T accepted")
	}
	if _, err := NewMachineDist(m, 6240, 219, d); err != nil {
		t.Errorf("valid dist machine rejected: %v", err)
	}
}

// A shape-1 Weibull is exponential in distribution, so the renewal-clock
// machine path must agree statistically with the analytic E(PATTERN) —
// the same oracle the exponential machine tests use.
func TestMachineDistWeibullShape1MatchesModel(t *testing.T) {
	pl := platform.Hera().WithLambda(2e-6)
	m := testModel(t, pl, costmodel.Scenario1, 0.1, 360)
	const tt, procs = 900.0, 64
	d, err := failures.NewWeibullMTBF(1, 1/m.LambdaInd)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(m, tt, procs, RunConfig{
		Runs: 300, Patterns: 120, Seed: 5, Machine: true, Dist: d,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := m.ExactPatternTime(tt, procs)
	if math.Abs(res.MeanPatternTime.Mean-want) > 4*res.MeanPatternTime.CI95 {
		t.Errorf("shape-1 Weibull machine E(PATTERN) = %g ± %g, model %g",
			res.MeanPatternTime.Mean, res.MeanPatternTime.CI95, want)
	}
}

// Bursty Weibull arrivals (k < 1) with the same MTBF must change the
// picture: same platform pressure, different higher moments. The test
// pins determinism (same seed, same stats) and checks the simulated
// failure counts stay in the right ballpark (mean preserved ⇒ expected
// number of arrivals over the campaign's exposure time is comparable).
func TestMachineDistWeibullBurstyRunsDeterministically(t *testing.T) {
	pl := platform.Hera().WithLambda(2e-6)
	m := testModel(t, pl, costmodel.Scenario1, 0.1, 360)
	d, err := failures.NewWeibullMTBF(0.7, 1/m.LambdaInd)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Runs: 120, Patterns: 80, Seed: 9, Machine: true, Dist: d}
	a, err := Simulate(m, 900, 64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(m, 900, 64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Overhead.Mean != b.Overhead.Mean || a.FailStops != b.FailStops ||
		a.SilentDetections != b.SilentDetections {
		t.Error("Weibull machine campaign not deterministic for a fixed seed")
	}
	if a.FailStops == 0 || a.SilentDetections == 0 {
		t.Errorf("no failures injected: %+v", a)
	}
	exp, err := Simulate(m, 900, 64, RunConfig{Runs: 120, Patterns: 80, Seed: 9, Machine: true})
	if err != nil {
		t.Fatal(err)
	}
	total := float64(a.FailStops + a.SilentDetections)
	totalExp := float64(exp.FailStops + exp.SilentDetections)
	if total < totalExp/3 || total > totalExp*3 {
		t.Errorf("calibration off: %g events under Weibull vs %g under exponential",
			total, totalExp)
	}
}

func TestSimulateDistRequiresMachine(t *testing.T) {
	m := testModel(t, platform.Hera(), costmodel.Scenario1, 0.1, 3600)
	d, err := failures.NewWeibullMTBF(0.7, 1/m.LambdaInd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(m, 6240, 219, RunConfig{Runs: 2, Patterns: 2, Dist: d}); err == nil {
		t.Error("Dist without Machine accepted")
	}
}

// An uncalibrated distribution whose mean is orders of magnitude below
// the model MTBF must trip the error-pressure guard instead of letting
// SimulateRun loop effectively forever.
func TestNewMachineDistGuardsUncalibratedMean(t *testing.T) {
	m := testModel(t, platform.Hera(), costmodel.Scenario1, 0.1, 3600)
	hot := failures.Weibull{Shape: 0.7, Scale: 1} // mean ~1.3 s vs MTBF ~6e7 s
	if _, err := NewMachineDist(m, 6240, 219, hot); !errors.Is(err, ErrErrorPressure) {
		t.Errorf("uncalibrated dist not rejected: err=%v", err)
	}
}
