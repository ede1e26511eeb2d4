package core

import (
	"math"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/speedup"
)

// relErr returns |a−b| / max(|a|, |b|, 1), treating equal infinities and
// NaN pairs as a perfect match.
func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	if math.IsNaN(a) && math.IsNaN(b) {
		return 0
	}
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) / scale
}

// TestFrozenMatchesModel is the frozen-engine equivalence property test:
// across random (T, P, scenario, α) draws, every Frozen method with a
// Model counterpart must agree with it to ≤ 1e-12 relative error (they
// are designed to be bit-exact; the tolerance only guards the test
// against future regressions that re-order arithmetic).
func TestFrozenMatchesModel(t *testing.T) {
	r := rng.New(0xF0F0)
	platforms := []struct {
		lambda, f  float64
		procs      float64
		cost, vqst float64
	}{
		{1.69e-8, 0.2188, 512, 300, 15.4},
		{1.62e-8, 0.0625, 1024, 439, 9.1},
		{2.34e-9, 0.1667, 2048, 1051, 4.5},
		{2.34e-9, 0.1667, 2048, 2500, 180},
	}

	checked := 0
	for trial := 0; trial < 4000; trial++ {
		pl := platforms[r.Intn(len(platforms))]
		sc := costmodel.AllScenarios[r.Intn(len(costmodel.AllScenarios))]
		downtime := []float64{0, 60, 3600}[r.Intn(3)]
		res, err := sc.Calibrate(pl.procs, pl.cost, pl.vqst, downtime)
		if err != nil {
			t.Fatal(err)
		}

		alpha := []float64{0, 1e-4, 1e-2, 0.1, 0.5}[r.Intn(5)]
		var profile speedup.Profile
		if alpha == 0 {
			profile = speedup.PerfectlyParallel{}
		} else {
			profile = speedup.Amdahl{Alpha: alpha}
		}

		// λ_ind spread over the paper's sweep range 1e-12 … 1e-8.
		lambda := pl.lambda * math.Pow(10, -2+4*r.Float64())
		m := Model{
			LambdaInd:    lambda,
			FailStopFrac: pl.f,
			SilentFrac:   1 - pl.f,
			Res:          res,
			Profile:      profile,
		}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}

		// P spans 1 … 1e12 (the α = 0 sweeps reach that far), T spans
		// microseconds to ~30 years, both log-uniform.
		p := math.Pow(10, 12*r.Float64())
		period := math.Pow(10, -6+15*r.Float64())
		fz := m.Freeze(p)

		pairs := []struct {
			name          string
			frozen, model float64
		}{
			{"PatternTime", fz.PatternTime(period), m.ExactPatternTime(period, p)},
			{"Overhead", fz.Overhead(period), m.Overhead(period, p)},
			{"OptimalPeriod", fz.OptimalPeriod(), m.OptimalPeriodFixedP(p)},
			{"ErrorFreeOverhead", fz.ErrorFreeOverhead(period), m.ErrorFreeOverhead(period, p)},
			{"ProfileOverhead", fz.ProfileOverhead(), m.Profile.Overhead(p)},
		}
		for _, pair := range pairs {
			if e := relErr(pair.frozen, pair.model); !(e <= 1e-12) {
				t.Fatalf("%s mismatch at P=%g, T=%g, α=%g, %v, D=%g, λ=%g: frozen=%g model=%g (rel err %g)",
					pair.name, p, period, alpha, sc, downtime, lambda,
					pair.frozen, pair.model, e)
			}
			checked++
		}

		// OverflowPeriod must only ever bound +Inf regions.
		if tOv := fz.OverflowPeriod(); !(period <= tOv) && !math.IsInf(fz.Overhead(period), 1) {
			t.Fatalf("T=%g beyond OverflowPeriod %g but Overhead finite at P=%g", period, tOv, p)
		}
	}
	if checked == 0 {
		t.Fatal("no comparisons performed")
	}
}

// TestFrozenBitExact pins the stronger design goal on the paper's own
// operating points: Frozen is not just close to Model, it is bit-identical
// (the optimizer's probe sequence and therefore every published figure
// depends on this).
func TestFrozenBitExact(t *testing.T) {
	res, err := costmodel.Scenario1.Calibrate(512, 300, 15.4, 3600)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{
		LambdaInd:    1.69e-8,
		FailStopFrac: 0.2188,
		SilentFrac:   0.7812,
		Res:          res,
		Profile:      speedup.Amdahl{Alpha: 0.1},
	}
	for _, p := range []float64{1, 219, 512, 1e4, 1e8} {
		fz := m.Freeze(p)
		for _, period := range []float64{1e-3, 60, 6240, 1e6, 1e10} {
			if got, want := fz.PatternTime(period), m.ExactPatternTime(period, p); got != want {
				t.Errorf("PatternTime(%g) at P=%g: %b != %b", period, p, got, want)
			}
			if got, want := fz.Overhead(period), m.Overhead(period, p); got != want {
				t.Errorf("Overhead(%g) at P=%g: %b != %b", period, p, got, want)
			}
		}
	}
}

// TestFrozenOverflowPeriodBoundsInf checks the contract the period
// minimizer's bracket clip relies on: the overhead is +Inf at every
// period beyond OverflowPeriod, in the regular and the λf→0 limit
// branch alike, and finite on the near side in the failure-dominated
// regime (so the clip does not cut the feasible band short).
func TestFrozenOverflowPeriodBoundsInf(t *testing.T) {
	res, err := costmodel.Scenario1.Calibrate(512, 300, 15.4, 3600)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{
		LambdaInd:    1.69e-8,
		FailStopFrac: 0.2188,
		SilentFrac:   0.7812,
		Res:          res,
		Profile:      speedup.Amdahl{Alpha: 0.1},
	}
	silentOnly := m
	silentOnly.FailStopFrac, silentOnly.SilentFrac = 0, 1
	failureDominated := m.Freeze(1e5)
	for _, c := range []struct {
		name string
		fz   Frozen
	}{
		{"failure-dominated", failureDominated},
		{"paper regime", m.Freeze(219)},
		{"silent only (limit branch)", silentOnly.Freeze(1e11)},
	} {
		tOv := c.fz.OverflowPeriod()
		if !(tOv > 0) || math.IsInf(tOv, 0) {
			t.Fatalf("%s: OverflowPeriod = %g", c.name, tOv)
		}
		for r := 1 + 1e-12; r < 1e12; r *= 1.5 {
			if h := c.fz.Overhead(tOv * r); !math.IsInf(h, 1) {
				t.Fatalf("%s: overhead %g finite at %g × OverflowPeriod", c.name, h, r)
			}
		}
	}
	if h := failureDominated.Overhead(failureDominated.OverflowPeriod() / 1.1); math.IsInf(h, 0) {
		t.Error("failure-dominated: overhead +Inf short of OverflowPeriod")
	}
	// Deeper in, C + V alone overflows the exponent: no period is finite.
	if fz := m.Freeze(1e11); !(fz.OverflowPeriod() < 0) || !math.IsInf(fz.Overhead(1e-6), 1) {
		t.Errorf("P = 1e11: OverflowPeriod %g, overhead at 1 µs %g; want < 0 and +Inf",
			fz.OverflowPeriod(), fz.Overhead(1e-6))
	}
	noErrors := m
	noErrors.LambdaInd = 0
	if fz := noErrors.Freeze(512); !math.IsInf(fz.OverflowPeriod(), 1) {
		t.Errorf("error-free OverflowPeriod = %g, want +Inf", fz.OverflowPeriod())
	}
}

// TestLimitBranchOverflowIsInf pins Proposition 1's λf → 0 limit branch
// at the point where e^{λs·T} overflows with R = 0: Expm1(λs·T)·R is
// Inf·0 there, and the pattern time and overhead must read +Inf, as the
// regular branch does, not NaN. Just below the overflow the values are
// pinned bit-exactly.
func TestLimitBranchOverflowIsInf(t *testing.T) {
	m := Model{
		LambdaInd:    1e-20,
		FailStopFrac: 0,
		SilentFrac:   1,
		Res: costmodel.Resilience{
			Checkpoint:   costmodel.Checkpoint{A: 60},
			Verification: costmodel.Verification{V: 10},
		},
		Profile: speedup.Amdahl{Alpha: 0.1},
	}
	const over = 1e21 // λs·T = 1000
	for name, got := range map[string]float64{
		"Model.ExactPatternTime": m.ExactPatternTime(over, 100),
		"Model.Overhead":         m.Overhead(over, 100),
	} {
		if !math.IsInf(got, 1) {
			t.Errorf("%s at T = %g: %g, want +Inf", name, over, got)
		}
	}
	const below = 5e20 // λs·T = 500
	for _, c := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"Model.ExactPatternTime", m.ExactPatternTime(below, 100), 0x71513e6d492f6b28},
		{"Model.Overhead", m.Overhead(below, 100), 0x6cd1c08bcb82241c},
	} {
		if bits := math.Float64bits(c.got); bits != c.want {
			t.Errorf("%s at T = %g: %g (%#x), want %g (%#x)", c.name, below,
				c.got, bits, math.Float64frombits(c.want), c.want)
		}
	}
}
