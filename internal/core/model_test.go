package core

import (
	"math"
	"testing"
	"testing/quick"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/speedup"
	"amdahlyd/internal/xmath"
)

// heraModel builds a Model with Hera-like parameters (Table II) under the
// given scenario shape, without importing internal/platform (core must
// stay below it in the dependency order).
func heraModel(t *testing.T, sc costmodel.Scenario, alpha float64) Model {
	t.Helper()
	res, err := sc.Calibrate(512, 300, 15.4, 3600)
	if err != nil {
		t.Fatal(err)
	}
	return Model{
		LambdaInd:    1.69e-8,
		FailStopFrac: 0.2188,
		SilentFrac:   0.7812,
		Res:          res,
		Profile:      speedup.Amdahl{Alpha: alpha},
	}
}

func TestValidate(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	if err := m.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := m
	bad.FailStopFrac = 0.7 // f + s != 1
	if err := bad.Validate(); err == nil {
		t.Error("inconsistent fractions accepted")
	}
	bad = m
	bad.LambdaInd = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative rate accepted")
	}
	bad = m
	bad.Profile = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil profile accepted")
	}
}

func TestRatesProportions(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	lf, ls := m.Rates(512)
	if !xmath.EqualWithin(lf, 0.2188*1.69e-8*512, 1e-12, 0) {
		t.Errorf("λf = %g", lf)
	}
	if !xmath.EqualWithin(ls, 0.7812*1.69e-8*512, 1e-12, 0) {
		t.Errorf("λs = %g", ls)
	}
	if !xmath.EqualWithin(m.EffectiveRate(512), lf/2+ls, 1e-12, 0) {
		t.Error("EffectiveRate mismatch")
	}
}

func TestExactPatternTimeErrorFreeLimit(t *testing.T) {
	// With λ_ind = 0 the pattern costs exactly T + V + C.
	m := heraModel(t, costmodel.Scenario3, 0.1)
	m.LambdaInd = 0
	got := m.ExactPatternTime(1000, 512)
	want := 1000 + 15.4 + 300
	if !xmath.EqualWithin(got, want, 1e-12, 0) {
		t.Errorf("error-free E = %g, want %g", got, want)
	}
}

func TestExactPatternTimeFailStopOnly(t *testing.T) {
	// With s = 0 the formula must reduce to the classical fail-stop form
	// (1/λf + D)·e^{λf·R}·(e^{λf·(C+T+V)} − 1).
	m := heraModel(t, costmodel.Scenario3, 0.1)
	m.FailStopFrac, m.SilentFrac = 1, 0
	p, tt := 512.0, 4000.0
	lf, _ := m.Rates(p)
	c := m.Res.Checkpoint.At(p)
	v := m.Res.Verification.At(p)
	want := (1/lf + m.Res.Downtime) * math.Exp(lf*c) * math.Expm1(lf*(c+tt+v))
	got := m.ExactPatternTime(tt, p)
	if !xmath.EqualWithin(got, want, 1e-10, 0) {
		t.Errorf("fail-stop-only E = %g, want %g", got, want)
	}
}

func TestExactPatternTimeSilentOnly(t *testing.T) {
	// With f = 0 the λf → 0 limit applies:
	// E = C + (T+V)e^{λsT} + (e^{λsT} − 1)·R.
	m := heraModel(t, costmodel.Scenario3, 0.1)
	m.FailStopFrac, m.SilentFrac = 0, 1
	p, tt := 512.0, 4000.0
	_, ls := m.Rates(p)
	c := m.Res.Checkpoint.At(p)
	v := m.Res.Verification.At(p)
	want := c + (tt+v)*math.Exp(ls*tt) + math.Expm1(ls*tt)*c
	got := m.ExactPatternTime(tt, p)
	if !xmath.EqualWithin(got, want, 1e-10, 0) {
		t.Errorf("silent-only E = %g, want %g", got, want)
	}
}

func TestExactPatternTimeClosedFormWhenRecoveryEqualsCheckpoint(t *testing.T) {
	// When R = C, Equation (2) collapses to
	// (1/λf + D)·e^{λfC+λsT}·(e^{λf(C+T+V)} − 1). Verify the identity.
	m := heraModel(t, costmodel.Scenario1, 0.1)
	for _, p := range []float64{64, 512, 4096} {
		for _, tt := range []float64{100, 5000, 50000} {
			lf, ls := m.Rates(p)
			c := m.Res.Checkpoint.At(p)
			v := m.Res.Verification.At(p)
			closed := (1/lf + m.Res.Downtime) * math.Exp(lf*c+ls*tt) * math.Expm1(lf*(c+tt+v))
			got := m.ExactPatternTime(tt, p)
			if !xmath.EqualWithin(got, closed, 1e-9, 0) {
				t.Errorf("P=%g T=%g: general %g vs closed %g", p, tt, got, closed)
			}
		}
	}
}

func TestExactPatternTimeGeneralRecovery(t *testing.T) {
	// With R ≠ C the general form must differ from the R = C closed form
	// in the right direction: larger R costs more.
	m := heraModel(t, costmodel.Scenario3, 0.1)
	base := m.ExactPatternTime(5000, 512)
	m.Res.Recovery = costmodel.Checkpoint{A: 3 * m.Res.Checkpoint.A}
	moreRecovery := m.ExactPatternTime(5000, 512)
	if moreRecovery <= base {
		t.Errorf("tripling R did not increase E: %g vs %g", moreRecovery, base)
	}
}

func TestExactPatternTimeInvalidInputs(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	if !math.IsInf(m.ExactPatternTime(0, 512), 1) {
		t.Error("T = 0 should be +Inf")
	}
	if !math.IsInf(m.ExactPatternTime(-5, 512), 1) {
		t.Error("negative T should be +Inf")
	}
	if !math.IsInf(m.ExactPatternTime(100, 0.5), 1) {
		t.Error("P < 1 should be +Inf")
	}
}

func TestExactPatternTimeOverflowIsInf(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	if got := m.ExactPatternTime(1e30, 1e6); !math.IsInf(got, 1) {
		t.Errorf("astronomical T should overflow to +Inf, got %g", got)
	}
}

// Property: E(PATTERN) is strictly increasing in T, in λ_ind, and in D.
func TestExactPatternTimeMonotonicity(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	f := func(tRaw, dRaw uint16) bool {
		t1 := 100 + float64(tRaw%40000)
		t2 := t1 + 1 + float64(dRaw%10000)
		if m.ExactPatternTime(t1, 512) >= m.ExactPatternTime(t2, 512) {
			return false
		}
		hot := m
		hot.LambdaInd = m.LambdaInd * 10
		if hot.ExactPatternTime(t1, 512) <= m.ExactPatternTime(t1, 512) {
			return false
		}
		slow := m
		slow.Res.Downtime = m.Res.Downtime + 1 + float64(dRaw%7200)
		return slow.ExactPatternTime(t1, 512) > m.ExactPatternTime(t1, 512)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the first-order expansion converges to the exact formula as
// λ_ind → 0: relative error shrinks by ~the rate ratio each decade.
func TestFirstOrderExpansionConvergence(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	p, tt := 512.0, 5000.0
	prevErr := math.Inf(1)
	for _, lam := range []float64{1e-7, 1e-8, 1e-9, 1e-10, 1e-11} {
		mm := m
		mm.LambdaInd = lam
		exact := mm.ExactPatternTime(tt, p)
		fz := mm.Freeze(p)
		approx := fz.FirstOrderPatternTime(tt)
		relErr := xmath.RelDiff(exact, approx)
		if relErr >= prevErr {
			t.Errorf("λ=%g: first-order error %g did not shrink (prev %g)", lam, relErr, prevErr)
		}
		prevErr = relErr
	}
	if prevErr > 1e-8 {
		t.Errorf("residual first-order error %g too large at λ=1e-11", prevErr)
	}
}

func TestFirstOrderPatternTimeTermStructure(t *testing.T) {
	// Evaluate the expansion explicitly against an independent rendering
	// of the Theorem 1 proof formula.
	m := heraModel(t, costmodel.Scenario3, 0.1)
	p, tt := 512.0, 4000.0
	lf, ls := m.Rates(p)
	c, v, d := 300.0, 15.4, 3600.0
	r := c
	want := tt + v + c + (lf/2+ls)*tt*tt + lf*tt*(v+c+r+d) + ls*tt*(v+r) +
		lf*c*(c/2+r+v+d) + lf*v*(v+r+d)
	fz := m.Freeze(p)
	got := fz.FirstOrderPatternTime(tt)
	if !xmath.EqualWithin(got, want, 1e-12, 0) {
		t.Errorf("expansion = %g, want %g", got, want)
	}
}

func TestOverheadDefinition(t *testing.T) {
	// H(T,P) = E/(T·S(P)) = (E/T)·H(P) and Speedup is its reciprocal.
	m := heraModel(t, costmodel.Scenario1, 0.1)
	tt, p := 6000.0, 512.0
	e := m.ExactPatternTime(tt, p)
	wantH := e / tt * m.Profile.Overhead(p)
	if got := m.Overhead(tt, p); !xmath.EqualWithin(got, wantH, 1e-12, 0) {
		t.Errorf("Overhead = %g, want %g", got, wantH)
	}
	fz := m.Freeze(p)
	if got := fz.Speedup(tt); !xmath.EqualWithin(got, 1/wantH, 1e-12, 0) {
		t.Errorf("Speedup = %g, want %g", got, 1/wantH)
	}
	if !math.IsInf(m.Overhead(0, p), 1) {
		t.Error("overhead at T=0 should be +Inf")
	}
}

func TestOverheadExceedsErrorFreeFloor(t *testing.T) {
	// With errors, overhead is strictly above the error-free overhead,
	// which itself is strictly above H(P).
	m := heraModel(t, costmodel.Scenario1, 0.1)
	tt, p := 6000.0, 512.0
	h := m.Overhead(tt, p)
	hFree := m.ErrorFreeOverhead(tt, p)
	hP := m.Profile.Overhead(p)
	if !(h > hFree && hFree > hP) {
		t.Errorf("ordering violated: H=%g, H_free=%g, H(P)=%g", h, hFree, hP)
	}
}

func TestExpectedMakespan(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	tt, p, w := 6000.0, 512.0, 1e9
	if got, want := m.ExpectedMakespan(w, tt, p), m.Overhead(tt, p)*w; got != want {
		t.Errorf("makespan = %g, want %g", got, want)
	}
}

// Property: for random small-rate models, the exact formula stays within a
// hair of the first-order expansion, across all six scenarios.
func TestExactVsExpansionAcrossScenarios(t *testing.T) {
	for _, sc := range costmodel.AllScenarios {
		m := heraModel(t, sc, 0.1)
		m.LambdaInd = 1e-10
		for _, p := range []float64{32, 512, 8192} {
			tt := m.OptimalPeriodFixedP(p)
			exact := m.ExactPatternTime(tt, p)
			fz := m.Freeze(p)
			approx := fz.FirstOrderPatternTime(tt)
			// At the optimal period λ_P·T is O(sqrt(λ_P·CV)), so the
			// dropped third-order terms contribute O((λT)³/6) ≈ 0.2%
			// at the largest P probed here.
			if xmath.RelDiff(exact, approx) > 5e-3 {
				t.Errorf("%v P=%g: exact %g vs expansion %g", sc, p, exact, approx)
			}
		}
	}
}
