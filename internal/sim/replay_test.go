package sim

import (
	"math"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/stats"
	"amdahlyd/internal/xmath"
)

func TestSimulateReplayValidation(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	tr := &failures.Trace{Horizon: 1e6}
	if _, err := SimulateReplay(m, 0, 512, tr); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := SimulateReplay(m, 100, 0, tr); err == nil {
		t.Error("P=0 accepted")
	}
	if _, err := SimulateReplay(m, 100, 512, nil); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := SimulateReplay(m, 100, 512, &failures.Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
	bad := m
	bad.LambdaInd = -1
	if _, err := SimulateReplay(bad, 100, 512, tr); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestReplayErrorFreeTrace(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	tr := &failures.Trace{Horizon: 1e6}
	res, err := SimulateReplay(m, 6000, 512, tr)
	if err != nil {
		t.Fatal(err)
	}
	perPattern := 6000 + 15.4 + 300.0
	wantPatterns := int64(1e6 / perPattern)
	if res.Patterns != wantPatterns {
		t.Errorf("patterns = %d, want %d", res.Patterns, wantPatterns)
	}
	if !res.TraceExhausted {
		t.Error("finite trace must eventually exhaust")
	}
	if res.FailStops != 0 || res.SilentDetections != 0 {
		t.Errorf("phantom errors: %+v", res)
	}
	if !xmath.EqualWithin(res.Elapsed, float64(wantPatterns)*perPattern, 1e-12, 0) {
		t.Errorf("elapsed = %g", res.Elapsed)
	}
}

func TestReplayHandCraftedTrace(t *testing.T) {
	// Craft a trace and verify the exact event-by-event accounting.
	// Pattern: T=1000, V=15.4... use scenario 3 so C=300, R=300, D=3600.
	m := heraModel(t, costmodel.Scenario3, 0.1)
	m.Res.Downtime = 100 // small downtime for easy arithmetic
	tr := &failures.Trace{
		Events: []failures.Event{
			// Silent error during the first computation window: detected
			// at the verification, recovery, pattern restarts.
			{Time: 500, Kind: failures.Silent, Proc: 0},
			// Fail-stop during the second attempt's computation: the
			// first attempt spans [0, 1015.4), its recovery
			// [1015.4, 1315.4), so attempt 2's computation window is
			// [1315.4, 2315.4) and the error strikes 500 s in.
			{Time: 1815.4, Kind: failures.FailStop, Proc: 1},
		},
		Horizon: 50000,
	}
	res, err := SimulateReplay(m, 1000, 512, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.SilentDetections != 1 || res.FailStops != 1 {
		t.Fatalf("event counts wrong: %+v", res.PatternStats)
	}
	if res.Recoveries != 2 {
		t.Errorf("recoveries = %d, want 2", res.Recoveries)
	}
	if res.Patterns == 0 {
		t.Error("no pattern completed")
	}
	// Wall-clock: attempt1 T+V = 1015.4, recovery 300, 500 into attempt
	// 2 + downtime 100, recovery 300, then the pattern completes and
	// every later pattern is clean, 1315.4 each.
	wantPrefix := 1015.4 + 300 + 500 + 100 + 300
	want := wantPrefix + float64(res.Patterns)*1315.4
	if !xmath.EqualWithin(res.Elapsed, want, 1e-9, 0) {
		t.Errorf("elapsed = %g, want %g", res.Elapsed, want)
	}
}

func TestReplaySilentDuringProtectedPhaseIgnored(t *testing.T) {
	m := heraModel(t, costmodel.Scenario3, 0.1)
	// Silent event inside the verification window [1000, 1015.4): must
	// be discarded, pattern completes cleanly.
	tr := &failures.Trace{
		Events:  []failures.Event{{Time: 1005, Kind: failures.Silent, Proc: 0}},
		Horizon: 10000,
	}
	res, err := SimulateReplay(m, 1000, 512, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.SilentDetections != 0 {
		t.Error("silent error during verification should be discarded")
	}
	if res.Patterns < 1 {
		t.Error("pattern should have completed")
	}
}

func TestReplayFailStopMasksSilent(t *testing.T) {
	m := heraModel(t, costmodel.Scenario3, 0.1)
	m.Res.Downtime = 0
	// Silent at 100, fail-stop at 200, both inside the first computation
	// window: the fail-stop masks the silent error (one rollback only).
	tr := &failures.Trace{
		Events: []failures.Event{
			{Time: 100, Kind: failures.Silent, Proc: 0},
			{Time: 200, Kind: failures.FailStop, Proc: 1},
		},
		Horizon: 20000,
	}
	res, err := SimulateReplay(m, 1000, 512, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.SilentDetections != 0 {
		t.Error("masked silent error was detected")
	}
	if res.FailStops != 1 || res.Recoveries != 1 {
		t.Errorf("counts wrong: %+v", res.PatternStats)
	}
}

// The statistical bridge: replaying a synthetic machine-level trace must
// reproduce the Monte-Carlo protocol simulator's mean pattern time (and
// hence Proposition 1) within confidence intervals.
func TestReplayMatchesMonteCarlo(t *testing.T) {
	m := heraModel(t, costmodel.Scenario3, 0.1)
	m.LambdaInd = 2e-6
	const procs = 64
	tt := 2000.0

	var acc stats.Welford
	for seed := uint64(0); seed < 60; seed++ {
		tr, err := failures.GenerateTraceDist(failures.Exponential{Rate: m.LambdaInd}, m.FailStopFrac, procs, 3e5, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateReplay(m, tt, procs, tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Patterns == 0 {
			t.Fatal("trace too short for a single pattern")
		}
		acc.Add(res.MeanPatternTime())
	}

	exact := m.ExactPatternTime(tt, procs)
	ci := acc.CI(0.95)
	if math.Abs(acc.Mean()-exact) > 4*ci {
		t.Errorf("replayed mean pattern time %g ± %g vs Proposition 1 %g",
			acc.Mean(), ci, exact)
	}
}

func TestReplayTraceExhaustionMidPattern(t *testing.T) {
	m := heraModel(t, costmodel.Scenario3, 0.1)
	// Horizon shorter than one pattern: zero patterns, exhausted.
	tr := &failures.Trace{Horizon: 500}
	res, err := SimulateReplay(m, 1000, 512, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Patterns != 0 || !res.TraceExhausted {
		t.Errorf("short trace handled wrongly: %+v", res)
	}
}

// TestReplayGoldenPinned pins trace replay bit for bit: seeded
// machine-level traces under the exponential law and a bursty Weibull
// law of the same MTBF, replayed through SimulateReplay.
func TestReplayGoldenPinned(t *testing.T) {
	pl := platform.Hera().WithLambda(1e-6)
	m := testModel(t, pl, costmodel.Scenario1, 0.1, 360)
	weibull, err := failures.NewWeibullMTBF(0.7, 1/pl.LambdaInd)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		dist failures.Distribution
		want ReplayResult
	}{
		{failures.Exponential{Rate: pl.LambdaInd}, ReplayResult{PatternStats: PatternStats{
			Patterns: 8715, Elapsed: 0x1.329a0f62a617dp+24, FailStops: 263, SilentDetections: 892, Recoveries: 1155,
		}, TraceExhausted: true}},
		{weibull, ReplayResult{PatternStats: PatternStats{
			Patterns: 8724, Elapsed: 0x1.329ae86a83bccp+24, FailStops: 261, SilentDetections: 892, Recoveries: 1153,
		}, TraceExhausted: true}},
	} {
		tr, err := failures.GenerateTraceDist(tc.dist, pl.FailStopFraction, 64, 2e7, rng.New(17))
		if err != nil {
			t.Fatal(err)
		}
		got, err := SimulateReplay(m, 2000, 64, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want || math.Float64bits(got.Elapsed) != math.Float64bits(tc.want.Elapsed) {
			t.Errorf("%s: replay = %+v (elapsed %x), want %+v (elapsed %x)",
				tc.dist.Name(), got, got.Elapsed, tc.want, tc.want.Elapsed)
		}
	}
}
