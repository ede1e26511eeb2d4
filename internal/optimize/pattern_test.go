package optimize

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/speedup"
	"amdahlyd/internal/xmath"
)

func heraModel(t *testing.T, sc costmodel.Scenario, alpha float64) core.Model {
	t.Helper()
	res, err := sc.Calibrate(512, 300, 15.4, 3600)
	if err != nil {
		t.Fatal(err)
	}
	var profile speedup.Profile = speedup.Amdahl{Alpha: alpha}
	if alpha == 0 {
		profile = speedup.PerfectlyParallel{}
	}
	return core.Model{
		LambdaInd:    1.69e-8,
		FailStopFrac: 0.2188,
		SilentFrac:   0.7812,
		Res:          res,
		Profile:      profile,
	}
}

func TestOptimalPeriodNearFirstOrder(t *testing.T) {
	// For valid first-order regimes the exact numerical T* must sit close
	// to Theorem 1's period (the paper's Fig. 3(c): within 0.2%
	// in overhead, which translates to a few percent in T).
	for _, sc := range costmodel.AllScenarios {
		m := heraModel(t, sc, 0.1)
		for _, p := range []float64{256, 512, 1024} {
			tStar, h, err := OptimalPeriod(m, p, PatternOptions{})
			if err != nil {
				t.Fatalf("%v P=%g: %v", sc, p, err)
			}
			fo := m.OptimalPeriodFixedP(p)
			if xmath.RelDiff(tStar, fo) > 0.25 {
				t.Errorf("%v P=%g: numerical T*=%g vs first-order %g", sc, p, tStar, fo)
			}
			// Numerical optimum can only improve on the first-order point.
			if h > m.Overhead(fo, p)+1e-12 {
				t.Errorf("%v P=%g: numerical overhead %g worse than first-order point %g",
					sc, p, h, m.Overhead(fo, p))
			}
		}
	}
}

func TestOptimalPeriodIsTrueMinimum(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	tStar, h, err := OptimalPeriod(m, 512, PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, factor := range []float64{0.9, 0.99, 1.01, 1.1} {
		if hh := m.Overhead(tStar*factor, 512); hh < h-1e-12 {
			t.Errorf("overhead %g at %g×T* below optimum %g", hh, factor, h)
		}
	}
}

func TestOptimalPatternScenario1MatchesTheorem2(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	num, err := OptimalPattern(m, PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fo, err := m.FirstOrder()
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 2 (Hera): first-order and numerical optima nearly coincide in
	// scenario 1. Allow 15% in parameters, 1% in overhead.
	if xmath.RelDiff(num.P, fo.P) > 0.15 {
		t.Errorf("P*: numerical %g vs first-order %g", num.P, fo.P)
	}
	if xmath.RelDiff(num.T, fo.T) > 0.15 {
		t.Errorf("T*: numerical %g vs first-order %g", num.T, fo.T)
	}
	if xmath.RelDiff(num.Overhead, fo.Overhead) > 0.01 {
		t.Errorf("H*: numerical %g vs first-order %g", num.Overhead, fo.Overhead)
	}
	if num.AtPBound {
		t.Error("scenario 1 optimum flagged at bound")
	}
	if num.Method != "numerical" {
		t.Errorf("method = %q", num.Method)
	}
}

func TestOptimalPatternScenario3MatchesTheorem3(t *testing.T) {
	m := heraModel(t, costmodel.Scenario3, 0.1)
	num, err := OptimalPattern(m, PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fo, err := m.FirstOrder()
	if err != nil {
		t.Fatal(err)
	}
	if xmath.RelDiff(num.P, fo.P) > 0.2 {
		t.Errorf("P*: numerical %g vs first-order %g", num.P, fo.P)
	}
	if xmath.RelDiff(num.Overhead, fo.Overhead) > 0.01 {
		t.Errorf("H*: numerical %g vs first-order %g", num.Overhead, fo.Overhead)
	}
}

func TestOptimalPatternIsLocalMinimum2D(t *testing.T) {
	m := heraModel(t, costmodel.Scenario3, 0.1)
	num, err := OptimalPattern(m, PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h0 := m.Overhead(num.T, num.P)
	for _, dT := range []float64{0.9, 1.1} {
		for _, dP := range []float64{0.9, 1.1} {
			if h := m.Overhead(num.T*dT, num.P*dP); h < h0-1e-10 {
				t.Errorf("overhead %g at (%g·T*, %g·P*) below optimum %g", h, dT, dP, h0)
			}
		}
	}
}

func TestOptimalPatternScenario6LargerPSmallerT(t *testing.T) {
	// Fig. 2: scenario 6 (both costs ∝ 1/P) has higher P* and smaller T*
	// than scenario 5.
	m5 := heraModel(t, costmodel.Scenario5, 0.1)
	m6 := heraModel(t, costmodel.Scenario6, 0.1)
	r5, err := OptimalPattern(m5, PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r6, err := OptimalPattern(m6, PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r6.P <= r5.P {
		t.Errorf("P*(sc6) = %g should exceed P*(sc5) = %g", r6.P, r5.P)
	}
	if r6.T >= r5.T {
		t.Errorf("T*(sc6) = %g should be below T*(sc5) = %g", r6.T, r5.T)
	}
}

func TestOptimalPatternPerfectlyParallelScenario5Unbounded(t *testing.T) {
	// α = 0 with constant-ish costs: P* grows like λ^-1 (Fig. 6); with
	// the default bound of 1e13 and λ = 1.69e-8 it is bounded (~1e8-ish),
	// but with scenario 6 (h/P costs) the allocation is unbounded and
	// must hit the search bound.
	m := heraModel(t, costmodel.Scenario6, 0)
	res, err := OptimalPattern(m, PatternOptions{PMax: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AtPBound {
		t.Errorf("scenario 6 with α=0 should be unbounded, got P*=%g", res.P)
	}
}

func TestOptimalPatternIntegerP(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	res, err := OptimalPattern(m, PatternOptions{IntegerP: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != math.Trunc(res.P) {
		t.Errorf("IntegerP returned fractional P = %g", res.P)
	}
	// Still near the continuous optimum.
	cont, _ := OptimalPattern(m, PatternOptions{})
	if math.Abs(res.P-cont.P) > 1.5 {
		t.Errorf("integer P = %g far from continuous %g", res.P, cont.P)
	}
}

func TestOptionValidation(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	if _, err := OptimalPattern(m, PatternOptions{PMin: 10, PMax: 5}); err == nil {
		t.Error("inverted P bounds accepted")
	}
	if _, err := OptimalPattern(m, PatternOptions{TMin: -1, TMax: 5}); err == nil {
		t.Error("negative TMin accepted")
	}
	if _, _, err := OptimalPeriod(m, 512, PatternOptions{TMin: 5, TMax: 5}); err == nil {
		t.Error("empty T interval accepted")
	}
	bad := m
	bad.LambdaInd = -1
	if _, err := OptimalPattern(bad, PatternOptions{}); err == nil {
		t.Error("invalid model accepted")
	}

	// Inputs the solvers cannot honour fail validation by name: neither
	// as an infeasible search box nor as an all-+Inf objective.
	named := func(label string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s accepted", label)
		} else if errors.Is(err, ErrNoFeasible) || errors.Is(err, errGridAllInf) {
			t.Errorf("%s reported as infeasibility: %v", label, err)
		}
	}
	_, err := OptimalPattern(m, PatternOptions{PMax: math.Inf(1)})
	named("PMax = +Inf", err)
	_, err = OptimalPattern(m, PatternOptions{TMax: math.Inf(1)})
	named("TMax = +Inf", err)
	_, _, err = OptimalPeriod(m, 512, PatternOptions{TMax: math.Inf(1)})
	named("OptimalPeriod with TMax = +Inf", err)
	nanRate := m
	nanRate.LambdaInd = math.NaN()
	_, _, err = OptimalPeriod(nanRate, 512, PatternOptions{})
	named("OptimalPeriod with λ_ind = NaN", err)
	for _, p := range []float64{math.NaN(), math.Inf(1), -5, 0, 0.5} {
		_, _, err = OptimalPeriod(m, p, PatternOptions{})
		named(fmt.Sprintf("OptimalPeriod at P = %g", p), err)
	}
}

func TestOptimalPatternDowntimeSensitivity(t *testing.T) {
	// Fig. 7: the numerical P* decreases as downtime grows; the
	// first-order P* does not depend on D at all.
	m0 := heraModel(t, costmodel.Scenario1, 0.1)
	m3 := m0
	m3.Res.Downtime = 3 * 3600
	r0, err := OptimalPattern(m0, PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := OptimalPattern(m3, PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r3.P >= r0.P {
		t.Errorf("P* should shrink with downtime: D=1h → %g, D=3h → %g", r0.P, r3.P)
	}
	fo0, _ := m0.FirstOrder()
	fo3, _ := m3.FirstOrder()
	if fo0.P != fo3.P {
		t.Error("first-order P* must not depend on D")
	}
}
