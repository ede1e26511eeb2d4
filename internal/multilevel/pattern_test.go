package multilevel

import (
	"math"
	"strings"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/speedup"
	"amdahlyd/internal/xmath"
)

// jointModel builds a Hera-like model for the joint (T, K, P) tests
// without importing experiments (which imports this package).
func jointModel(t testing.TB, sc costmodel.Scenario, alpha, lambda float64) core.Model {
	t.Helper()
	res, err := sc.Calibrate(512, 300, 15.4, 3600)
	if err != nil {
		t.Fatal(err)
	}
	var profile speedup.Profile = speedup.PerfectlyParallel{}
	if alpha != 0 {
		profile = speedup.Amdahl{Alpha: alpha}
	}
	m := core.Model{
		LambdaInd:    lambda,
		FailStopFrac: 0.2188,
		SilentFrac:   0.7812,
		Res:          res,
		Profile:      profile,
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// bruteForceJoint scans a dense log grid of P, solving the inner (T, K)
// problem by an exhaustive integer-K scan with the closed-form segment
// length — the reference the optimizer must agree with.
func bruteForceJoint(t testing.TB, m core.Model, frac, pMin, pMax float64, gridP, kMax int) (bestP float64, bestK int, bestH float64) {
	t.Helper()
	bestH = math.Inf(1)
	uLo, uHi := math.Log(pMin), math.Log(pMax)
	for i := 0; i < gridP; i++ {
		p := math.Exp(uLo + (uHi-uLo)*float64(i)/float64(gridP-1))
		c, err := SingleLevelCosts(m, p, frac)
		if err != nil {
			t.Fatal(err)
		}
		lf, ls := m.Rates(p)
		hOfP := m.Profile.Overhead(p)
		for k := 1; k <= kMax; k++ {
			tt := OptimalSegmentLength(c, k, lf, ls)
			if h := Overhead(c, Pattern{T: tt, K: k}, lf, ls, hOfP); h < bestH {
				bestP, bestK, bestH = p, k, h
			}
		}
	}
	return bestP, bestK, bestH
}

// TestOptimalPatternMatchesBruteForce is the correctness anchor of the
// joint optimizer: on pinned scenarios the (T, K, P) optimum must agree
// with an exhaustive box scan.
func TestOptimalPatternMatchesBruteForce(t *testing.T) {
	cases := []struct {
		name   string
		sc     costmodel.Scenario
		alpha  float64
		lambda float64
		frac   float64
	}{
		{"hera-sc3", costmodel.Scenario3, 0.1, 1.69e-8, 20.0 / 300},
		{"sc1-high-rate", costmodel.Scenario1, 0.1, 1e-7, 0.1},
		{"sc5-low-alpha", costmodel.Scenario5, 0.01, 1e-9, 0.5},
		{"free-mem-level", costmodel.Scenario3, 0.1, 1.69e-8, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := jointModel(t, tc.sc, tc.alpha, tc.lambda)
			res, err := OptimalPattern(m, InMemoryFraction(m, tc.frac), PatternOptions{})
			if err != nil {
				t.Fatal(err)
			}
			bp, bk, bh := bruteForceJoint(t, m, tc.frac, 1, 1e13, 1600, 300)
			// The optimizer refines beyond the brute-force grid, so it may
			// only be better (up to roundoff).
			if res.PredictedH > bh*(1+1e-9) {
				t.Errorf("optimizer H = %g worse than brute force %g", res.PredictedH, bh)
			}
			// The brute-force grid spacing is ~13/1600 decades ≈ 1.9%.
			if d := math.Abs(math.Log(res.P / bp)); d > 0.04 {
				t.Errorf("P* = %g vs brute force %g (log gap %.3g)", res.P, bp, d)
			}
			if res.K != bk && xmath.RelDiff(res.PredictedH, bh) > 1e-6 {
				t.Errorf("K = %d vs brute force %d with H gap %g", res.K, bk, xmath.RelDiff(res.PredictedH, bh))
			}
			// Internal consistency: T is the closed-form optimum at (K, P*).
			c, err := SingleLevelCosts(m, res.P, tc.frac)
			if err != nil {
				t.Fatal(err)
			}
			lf, ls := m.Rates(res.P)
			if want := OptimalSegmentLength(c, res.K, lf, ls); res.T != want {
				t.Errorf("T = %g, want closed-form %g at K=%d, P=%g", res.T, want, res.K, res.P)
			}
		})
	}
}

// TestOptimalPatternBeatsFixedP pins the point of the whole exercise:
// jointly optimizing P must do at least as well as the two-level optimum
// at the deployed processor count.
func TestOptimalPatternBeatsFixedP(t *testing.T) {
	m := jointModel(t, costmodel.Scenario3, 0.1, 1.69e-8)
	const frac = 20.0 / 300
	res, err := OptimalPattern(m, InMemoryFraction(m, frac), PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := SingleLevelCosts(m, 512, frac)
	if err != nil {
		t.Fatal(err)
	}
	lf, ls := m.Rates(512)
	fixed, err := FirstOrder(c, lf, ls, m.Profile.Overhead(512))
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedH > fixed.PredictedH*(1+1e-12) {
		t.Errorf("joint optimum %g worse than fixed-P optimum %g", res.PredictedH, fixed.PredictedH)
	}
}

func TestOptimalPatternValidation(t *testing.T) {
	m := jointModel(t, costmodel.Scenario3, 0.1, 1.69e-8)
	if _, err := OptimalPattern(m, nil, PatternOptions{}); err == nil {
		t.Error("nil CostsFunc accepted")
	}
	if _, err := OptimalPattern(m, InMemoryFraction(m, 0.1), PatternOptions{PMin: 5, PMax: 2}); err == nil {
		t.Error("inverted processor box accepted")
	}
	silentOnly := m
	silentOnly.FailStopFrac, silentOnly.SilentFrac = 0, 1
	if _, err := OptimalPattern(silentOnly, InMemoryFraction(silentOnly, 0.1), PatternOptions{}); err == nil {
		t.Error("single-source model accepted (separable optima divide by each rate)")
	}
	if _, err := OptimalPattern(m, InMemoryFraction(m, math.NaN()), PatternOptions{}); err == nil {
		t.Error("NaN fraction accepted (CostsFunc errors must propagate)")
	}
	// The all-infeasible diagnostic must surface the underlying CostsFunc
	// error, not just search-box geometry.
	if _, err := OptimalPattern(m, InMemoryFraction(m, -0.5), PatternOptions{}); err == nil {
		t.Error("negative fraction accepted")
	} else if !strings.Contains(err.Error(), "in-memory fraction") {
		t.Errorf("out-of-range fraction error hides the cause: %v", err)
	}
}

// TestTwoLevelSolversRejectInfinitePMax: a non-finite processor bound
// fails option validation by name, in the one-shot and the sweep solver
// alike, instead of surfacing as an infeasible search box.
func TestTwoLevelSolversRejectInfinitePMax(t *testing.T) {
	m := jointModel(t, costmodel.Scenario3, 0.1, 1.69e-8)
	opts := PatternOptions{PMax: math.Inf(1)}
	_, err := OptimalPattern(m, InMemoryFraction(m, 0.1), opts)
	if err == nil || !strings.Contains(err.Error(), "bad processor bounds") {
		t.Errorf("OptimalPattern with PMax = +Inf: %v, want a bad processor bounds error", err)
	}
	for _, cold := range []bool{false, true} {
		s := NewSweepSolver(SweepOptions{PatternOptions: opts, Cold: cold})
		_, err := s.Solve(m, InMemoryFraction(m, 0.1))
		if err == nil || !strings.Contains(err.Error(), "bad processor bounds") {
			t.Errorf("SweepSolver (cold %t) with PMax = +Inf: %v, want a bad processor bounds error", cold, err)
		}
	}
}

// TestOptimalPatternIntegerP: the rounded allocation must be one of the
// integers adjacent to the continuous optimum and feasible.
func TestOptimalPatternIntegerP(t *testing.T) {
	m := jointModel(t, costmodel.Scenario3, 0.1, 1.69e-8)
	frac := 20.0 / 300
	cont, err := OptimalPattern(m, InMemoryFraction(m, frac), PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	integ, err := OptimalPattern(m, InMemoryFraction(m, frac), PatternOptions{IntegerP: true})
	if err != nil {
		t.Fatal(err)
	}
	if integ.P != math.Floor(integ.P) {
		t.Errorf("IntegerP returned non-integral P = %g", integ.P)
	}
	if math.Abs(integ.P-cont.P) > 1 {
		t.Errorf("integer P = %g not adjacent to continuous %g", integ.P, cont.P)
	}
}
