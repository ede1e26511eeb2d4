package multilevel

import (
	"context"
	"math"
	"strings"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/speedup"
	"amdahlyd/internal/xmath"
)

// heraCosts builds a plausible two-level cost set: disk checkpoint 300 s,
// in-memory 20 s, verification 15.4 s.
func heraCosts() Costs {
	return Costs{V: 15.4, C1: 20, R1: 20, C2: 300, R2: 300, D: 3600}
}

func heraRates(procs float64) (lf, ls float64) {
	return 0.2188 * 1.69e-8 * procs, 0.7812 * 1.69e-8 * procs
}

func TestCostsValidate(t *testing.T) {
	if err := heraCosts().Validate(); err != nil {
		t.Errorf("valid costs rejected: %v", err)
	}
	bad := heraCosts()
	bad.C1 = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative cost accepted")
	}
	inv := heraCosts()
	inv.C1, inv.C2 = 300, 20 // level 2 cheaper than level 1
	if err := inv.Validate(); err == nil {
		t.Error("inverted level costs accepted")
	}
}

func TestFirstOrderSeparation(t *testing.T) {
	c := heraCosts()
	lf, ls := heraRates(512)
	plan, err := FirstOrder(c, lf, ls, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// K rounds the separable K* = U*/T* (T* = sqrt((V+C1)/λs),
	// U* = sqrt(2·C2/λf)) to an adjacent integer…
	sepT := math.Sqrt((c.V + c.C1) / ls)
	wantU := math.Sqrt(2 * c.C2 / lf)
	kReal := wantU / sepT
	if math.Abs(float64(plan.K)-kReal) > 1 {
		t.Errorf("K = %d, want ≈%g", plan.K, kReal)
	}
	if plan.K < 1 {
		t.Error("K must be at least 1")
	}
	// …and T is re-optimized for that integer K (near the separable T*
	// when K* is far from its rounding boundaries, but not equal to it).
	wantT := OptimalSegmentLength(c, plan.K, lf, ls)
	if plan.T != wantT {
		t.Errorf("T = %g, want the re-optimized segment length %g", plan.T, wantT)
	}
	if plan.T < sepT/2 || plan.T > sepT*2 {
		t.Errorf("re-optimized T = %g implausibly far from separable %g", plan.T, sepT)
	}
}

// Regression: FirstOrder used to return the *separable* T* with the
// rounded K. The separable period is optimal only for the continuous K*,
// so in regimes where K* rounds hard the returned plan sat far above the
// true first-order optimum — most dramatically when K* < 1 clamps to
// K = 1 and the optimal segment degenerates to the single-level
// Young/Daly period sqrt((V+C1+C2)/(λs+λf/2)). Pin an adversarial cost
// set in that regime plus a near-half-integer K* case, and require the
// plan to match a brute-force integer-K scan with re-optimized T.
func TestFirstOrderRoundingRegression(t *testing.T) {
	cases := []struct {
		name   string
		c      Costs
		lf, ls float64
	}{
		// K* ≈ 0.326: clamps to K = 1; the separable T* ≈ 25822 s while
		// the true first-order optimum at K = 1 is T ≈ 8146 s. The old
		// plan's overhead exceeds the optimum by ~74%.
		{"clamped", Costs{V: 15.4, C1: 20, R1: 20, C2: 300, R2: 300, D: 3600}, 1e-5, 5.31e-8},
		// K* ≈ 2.4999: the half-integer boundary where rounding is most
		// brutal for a fixed-T plan.
		{"half-integer", Costs{V: 15.4, C1: 20, R1: 20, C2: 300, R2: 300, D: 3600},
			1e-6, 1e-6 * 2.4999 * 2.4999 * 35.4 / 600},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := FirstOrder(tc.c, tc.lf, tc.ls, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			// Brute force over integer K with re-optimized T per K.
			bestH := math.Inf(1)
			bestK := 0
			for k := 1; k <= 200; k++ {
				tt := OptimalSegmentLength(tc.c, k, tc.lf, tc.ls)
				if h := Overhead(tc.c, Pattern{T: tt, K: k}, tc.lf, tc.ls, 0.1); h < bestH {
					bestH, bestK = h, k
				}
			}
			if plan.K != bestK {
				t.Errorf("K = %d, brute force wants %d", plan.K, bestK)
			}
			if plan.PredictedH > bestH*(1+1e-12) {
				t.Errorf("PredictedH = %g exceeds brute-force optimum %g (excess %.2f%%)",
					plan.PredictedH, bestH, (plan.PredictedH/bestH-1)*100)
			}
			// The separable-T plan must not sneak back in: at the clamped
			// case it is measurably worse than what FirstOrder now returns.
			sepT := math.Sqrt((tc.c.V + tc.c.C1) / tc.ls)
			if sepH := Overhead(tc.c, Pattern{T: sepT, K: plan.K}, tc.lf, tc.ls, 0.1); sepH < plan.PredictedH {
				t.Errorf("separable-T plan (%g) beats the re-optimized plan (%g)", sepH, plan.PredictedH)
			}
		})
	}
}

func TestFirstOrderIsStationary(t *testing.T) {
	c := heraCosts()
	lf, ls := heraRates(512)
	plan, err := FirstOrder(c, lf, ls, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	h0 := Overhead(c, plan.Pattern, lf, ls, 0.1)
	if !xmath.EqualWithin(h0, plan.PredictedH, 1e-12, 0) {
		t.Error("PredictedH inconsistent with Overhead")
	}
	// Perturbing T or K must not improve the first-order overhead.
	for _, fT := range []float64{0.8, 1.25} {
		if h := Overhead(c, Pattern{T: plan.T * fT, K: plan.K}, lf, ls, 0.1); h < h0-1e-12 {
			t.Errorf("overhead %g at %g·T* beats optimum %g", h, fT, h0)
		}
	}
	for _, dK := range []int{-1, 1} {
		k := plan.K + dK
		if k < 1 {
			continue
		}
		if h := Overhead(c, Pattern{T: plan.T, K: k}, lf, ls, 0.1); h < h0-1e-12 {
			t.Errorf("overhead %g at K=%d beats optimum %g", h, k, h0)
		}
	}
}

func TestFirstOrderValidation(t *testing.T) {
	c := heraCosts()
	if _, err := FirstOrder(c, 0, 1e-6, 0.1); err == nil {
		t.Error("zero fail-stop rate accepted")
	}
	if _, err := FirstOrder(c, 1e-6, 0, 0.1); err == nil {
		t.Error("zero silent rate accepted")
	}
	if _, err := FirstOrder(c, 1e-6, 1e-6, 0); err == nil {
		t.Error("zero H(P) accepted")
	}
	inf := math.Inf(1)
	for _, rates := range [][2]float64{{inf, 1e-6}, {1e-6, inf}} {
		if _, err := FirstOrder(c, rates[0], rates[1], 0.1); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("rates (λf, λs) = %v: err = %v, want the infinite rate rejected", rates, err)
		}
	}
	bad := c
	bad.V = math.NaN()
	if _, err := FirstOrder(bad, 1e-6, 1e-6, 0.1); err == nil {
		t.Error("NaN cost accepted")
	}
}

func TestSimulatorValidation(t *testing.T) {
	c := heraCosts()
	if _, err := NewSimulator(c, Pattern{T: 0, K: 3}, 1e-6, 1e-6); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := NewSimulator(c, Pattern{T: 100, K: 0}, 1e-6, 1e-6); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewSimulator(c, Pattern{T: 100, K: 3}, -1, 1e-6); err == nil {
		t.Error("negative rate accepted")
	}
	s, err := NewSimulator(c, Pattern{T: 100, K: 3}, 1e-6, 1e-6)
	if err != nil || s == nil {
		t.Fatalf("valid simulator rejected: %v", err)
	}
	if _, err := s.SimulateContext(context.Background(), CampaignConfig{Runs: -1, Patterns: 10, Seed: 1, HOfP: 0.1}); err == nil {
		t.Error("negative runs accepted")
	}
}

func TestSimulatorErrorFree(t *testing.T) {
	c := heraCosts()
	s, err := NewSimulator(c, Pattern{T: 1000, K: 4}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	s.SimulatePattern(rng.New(1), &st)
	// 4 segments of (T+V+C1) plus one C2; the last segment still takes
	// its in-memory checkpoint in this protocol.
	want := 4*(1000+c.V+c.C1) + c.C2
	if !xmath.EqualWithin(st.Elapsed, want, 1e-12, 0) {
		t.Errorf("error-free elapsed %g, want %g", st.Elapsed, want)
	}
	if st.FailStops != 0 || st.SilentDetections != 0 {
		t.Errorf("phantom errors: %+v", st)
	}
}

// The simulated overhead must match the first-order prediction within a
// few percent in the first-order validity regime.
func TestSimulationMatchesFirstOrder(t *testing.T) {
	c := heraCosts()
	lf, ls := heraRates(512)
	plan, err := FirstOrder(c, lf, ls, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimulator(c, plan.Pattern, lf, ls)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SimulateContext(context.Background(), CampaignConfig{
		Runs: 120, Patterns: 80, Seed: 7, Workers: 1, HOfP: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if xmath.RelDiff(res.Overhead.Mean, plan.PredictedH) > 0.03 {
		t.Errorf("simulated %g vs predicted %g", res.Overhead.Mean, plan.PredictedH)
	}
}

// The economic claim: with cheap in-memory checkpoints and mostly-silent
// errors (the Hera mix), the optimal two-level pattern beats the optimal
// single-level pattern.
func TestTwoLevelBeatsSingleLevelWhenSilentDominates(t *testing.T) {
	res, err := costmodel.Scenario3.Calibrate(512, 300, 15.4, 3600)
	if err != nil {
		t.Fatal(err)
	}
	m := core.Model{
		LambdaInd:    1.69e-8,
		FailStopFrac: 0.2188,
		SilentFrac:   0.7812,
		Res:          res,
		Profile:      speedup.Amdahl{Alpha: 0.1},
	}
	p := 512.0
	lf, ls := m.Rates(p)
	hOfP := m.Profile.Overhead(p)

	// Single level: Theorem 1 optimal pattern, priced by its simulator.
	single := m.OverheadAtOptimalPeriod(p)

	costs, err := SingleLevelCosts(m, p, 20.0/300) // 20 s in-memory checkpoint
	if err != nil {
		t.Fatal(err)
	}
	plan, err := FirstOrder(costs, lf, ls, hOfP)
	if err != nil {
		t.Fatal(err)
	}
	if plan.K < 2 {
		t.Fatalf("expected a genuinely multi-segment pattern, got K=%d", plan.K)
	}
	if plan.PredictedH >= single {
		t.Errorf("two-level %g should beat single-level %g with cheap C1", plan.PredictedH, single)
	}

	// And the advantage survives simulation.
	s, err := NewSimulator(costs, plan.Pattern, lf, ls)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := s.SimulateContext(context.Background(), CampaignConfig{
		Runs: 100, Patterns: 60, Seed: 11, Workers: 1, HOfP: hOfP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if camp.Overhead.Mean >= single {
		t.Errorf("simulated two-level %g should beat single-level %g", camp.Overhead.Mean, single)
	}
}

func TestSingleLevelCostsValidation(t *testing.T) {
	res, _ := costmodel.Scenario3.Calibrate(512, 300, 15.4, 3600)
	m := core.Model{
		LambdaInd: 1e-8, FailStopFrac: 0.2, SilentFrac: 0.8,
		Res: res, Profile: speedup.Amdahl{Alpha: 0.1},
	}
	if _, err := SingleLevelCosts(m, 512, 1.5); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := SingleLevelCosts(m, 512, -0.01); err == nil {
		t.Error("negative fraction accepted")
	}
	// NaN compares false against both bounds: the naive two-sided check
	// used to let it through and poison every derived cost.
	if _, err := SingleLevelCosts(m, 512, math.NaN()); err == nil {
		t.Error("NaN fraction accepted")
	}
	c, err := SingleLevelCosts(m, 512, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !xmath.EqualWithin(c.C1, 30, 1e-9, 0) || !xmath.EqualWithin(c.C2, 300, 1e-9, 0) {
		t.Errorf("derived costs wrong: %+v", c)
	}
}

// The boundary fractions are meaningful configurations, not errors: 0 is
// a free (instant) in-memory level, 1 prices both levels at the full
// disk cost. Both must produce valid cost sets that FirstOrder accepts.
func TestSingleLevelCostsBoundaryFractions(t *testing.T) {
	res, _ := costmodel.Scenario3.Calibrate(512, 300, 15.4, 3600)
	m := core.Model{
		LambdaInd: 1e-8, FailStopFrac: 0.2, SilentFrac: 0.8,
		Res: res, Profile: speedup.Amdahl{Alpha: 0.1},
	}
	lf, ls := m.Rates(512)
	for _, tc := range []struct {
		frac   float64
		c1, c2 float64
	}{
		{0, 0, 300},
		{1, 300, 300},
	} {
		c, err := SingleLevelCosts(m, 512, tc.frac)
		if err != nil {
			t.Fatalf("fraction %g rejected: %v", tc.frac, err)
		}
		if !xmath.EqualWithin(c.C1, tc.c1, 1e-9, 0) || !xmath.EqualWithin(c.C2, tc.c2, 1e-9, 0) {
			t.Errorf("fraction %g: derived costs %+v, want C1=%g C2=%g", tc.frac, c, tc.c1, tc.c2)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("fraction %g: derived costs invalid: %v", tc.frac, err)
		}
		plan, err := FirstOrder(c, lf, ls, 0.1)
		if err != nil {
			t.Errorf("fraction %g: FirstOrder rejected derived costs: %v", tc.frac, err)
		} else if plan.K < 1 || !(plan.T > 0) || !(plan.PredictedH > 0) || math.IsInf(plan.PredictedH, 0) {
			t.Errorf("fraction %g: degenerate plan %+v", tc.frac, plan)
		}
	}
}

// Error accounting: with only silent errors, every detection costs one
// memory recovery and no disk recovery.
func TestSilentOnlyUsesMemoryRecoveries(t *testing.T) {
	c := heraCosts()
	_, ls := heraRates(512)
	s, err := NewSimulator(c, Pattern{T: 5000, K: 5}, 0, ls*100)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	r := rng.New(3)
	for i := 0; i < 500; i++ {
		s.SimulatePattern(r, &st)
	}
	if st.SilentDetections == 0 {
		t.Fatal("no silent errors at 100× rate — test is vacuous")
	}
	if st.DiskRecoveries != 0 || st.FailStops != 0 {
		t.Errorf("silent-only run touched disk recovery: %+v", st)
	}
	if st.MemRecoveries != st.SilentDetections {
		t.Errorf("memory recoveries %d != detections %d", st.MemRecoveries, st.SilentDetections)
	}
}

// With only fail-stop errors, rollbacks always go to disk.
func TestFailStopOnlyUsesDiskRecoveries(t *testing.T) {
	c := heraCosts()
	lf, _ := heraRates(512)
	s, err := NewSimulator(c, Pattern{T: 5000, K: 5}, lf*100, 0)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	r := rng.New(5)
	for i := 0; i < 500; i++ {
		s.SimulatePattern(r, &st)
	}
	if st.FailStops == 0 {
		t.Fatal("no fail-stops at 100× rate — test is vacuous")
	}
	if st.MemRecoveries != 0 || st.SilentDetections != 0 {
		t.Errorf("fail-stop-only run used memory recovery: %+v", st)
	}
	if st.DiskRecoveries < st.FailStops {
		t.Errorf("disk recoveries %d < fail-stops %d", st.DiskRecoveries, st.FailStops)
	}
}

func TestOptimalSegmentLengthStationarity(t *testing.T) {
	// For each K, the closed-form T must be the minimum of the overhead.
	c := heraCosts()
	lf, ls := heraRates(512)
	for _, k := range []int{1, 3, 8, 20} {
		tt := OptimalSegmentLength(c, k, lf, ls)
		h0 := Overhead(c, Pattern{T: tt, K: k}, lf, ls, 0.1)
		for _, f := range []float64{0.9, 1.1} {
			if h := Overhead(c, Pattern{T: tt * f, K: k}, lf, ls, 0.1); h < h0-1e-12 {
				t.Errorf("K=%d: %g at %g·T beats %g", k, h, f, h0)
			}
		}
	}
}
