package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/speedup"
)

func TestBuildModel(t *testing.T) {
	m, err := BuildModel(platform.Hera(), costmodel.Scenario1, 0.1, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Profile.(speedup.Amdahl); !ok {
		t.Error("α > 0 should select the Amdahl profile")
	}
	m0, err := BuildModel(platform.Hera(), costmodel.Scenario1, 0, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m0.Profile.(speedup.PerfectlyParallel); !ok {
		t.Error("α = 0 should select the perfectly parallel profile")
	}
	if _, err := BuildModel(platform.Platform{}, costmodel.Scenario1, 0.1, 0); err == nil {
		t.Error("invalid platform accepted")
	}
	if _, err := BuildModel(platform.Hera(), costmodel.Scenario(9), 0.1, 0); err == nil {
		t.Error("invalid scenario accepted")
	}
	if _, err := BuildModel(platform.Hera(), costmodel.Scenario1, -0.5, 0); err == nil {
		t.Error("invalid alpha accepted")
	}
}

func TestCellSeedStability(t *testing.T) {
	a := cellSeed(1, "fig2/Hera/scenario 1")
	b := cellSeed(1, "fig2/Hera/scenario 1")
	c := cellSeed(1, "fig2/Hera/scenario 2")
	d := cellSeed(2, "fig2/Hera/scenario 1")
	if a != b {
		t.Error("cell seed not stable")
	}
	if a == c || a == d {
		t.Error("cell seeds collide across labels or master seeds")
	}
}

func TestQuickConfig(t *testing.T) {
	q := Quick().withDefaults()
	full := Config{}.withDefaults()
	if q.Runs*q.Patterns >= full.Runs*full.Patterns/10 {
		t.Error("Quick config is not substantially cheaper than the default")
	}
	if full.Runs != 500 || full.Patterns != 500 || DefaultDowntime != 3600 || DefaultAlpha != 0.1 {
		t.Errorf("paper defaults wrong: %+v", full)
	}
}

func TestParallelFor(t *testing.T) {
	out := make([]int, 100)
	err := parallelFor(context.Background(), 100, func(_ context.Context, i int) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("cell %d = %d", i, v)
		}
	}
}

// A cancelled context must abort the sweep with ctx.Err() and stop
// dispatching cells.
func TestParallelForCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := parallelFor(ctx, 1000, func(_ context.Context, i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("all %d cells ran despite pre-cancelled context", n)
	}
}

// The first cell error must cancel the remaining cells (fail-fast at the
// sweep level) and surface as the returned error, without cancellation
// noise from the aborted siblings.
func TestParallelForFailFast(t *testing.T) {
	sentinel := errors.New("cell broke")
	var ran atomic.Int64
	err := parallelFor(context.Background(), 1000, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			return sentinel
		}
		// Well-behaved cells notice the cancellation like a real campaign
		// (sim.SimulateContext) would.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("err %v contains cancellation noise from aborted cells", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("all %d cells ran despite cell-0 failure", n)
	}
}

// Fig. 2 on Hera (quick budget): the headline claims of the figure.
func TestFig2Hera(t *testing.T) {
	res, err := Fig2(context.Background(), []platform.Platform{platform.Hera()}, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("expected 6 cells, got %d", len(res.Cells))
	}
	byScenario := map[costmodel.Scenario]Fig2Cell{}
	for _, c := range res.Cells {
		byScenario[c.Scenario] = c
		if c.Optimal == nil {
			t.Fatalf("%v: numerical optimum missing", c.Scenario)
		}
	}

	// Scenarios 1–5 have first-order solutions close to the optimum;
	// scenario 6 has none.
	for _, sc := range costmodel.AllScenarios {
		c := byScenario[sc]
		if sc == costmodel.Scenario6 {
			if c.FirstOrder != nil {
				t.Error("scenario 6 should have no first-order solution")
			}
			continue
		}
		if c.FirstOrder == nil {
			t.Fatalf("%v: first-order solution missing", sc)
		}
		// The paper: overheads ≈ 0.11 and first-order ≈ optimal in
		// scenarios 1–4; scenario 5 deviates by up to ~5%.
		tol := 0.05
		if sc == costmodel.Scenario5 {
			tol = 0.10
		}
		gap := math.Abs(c.FirstOrder.SimulatedH-c.Optimal.SimulatedH) / c.Optimal.SimulatedH
		if gap > tol {
			t.Errorf("%v: first-order vs optimal simulated overhead gap %.3f", sc, gap)
		}
		if c.FirstOrder.SimulatedH < 0.10 || c.FirstOrder.SimulatedH > 0.135 {
			t.Errorf("%v: simulated overhead %g outside the ≈0.11 band",
				sc, c.FirstOrder.SimulatedH)
		}
		// Simulation agrees with the model prediction.
		if diff := math.Abs(c.FirstOrder.SimulatedH - c.FirstOrder.PredictedH); diff > 6*c.FirstOrder.SimCI+1e-3 {
			t.Errorf("%v: simulated %g vs predicted %g beyond CI", sc,
				c.FirstOrder.SimulatedH, c.FirstOrder.PredictedH)
		}
	}

	// Scenario ordering of P*: constant-cost scenarios enroll more
	// processors than linear-cost ones; scenario 6 the most.
	if !(byScenario[costmodel.Scenario3].Optimal.P > byScenario[costmodel.Scenario1].Optimal.P) {
		t.Error("P*(sc3) should exceed P*(sc1)")
	}
	if !(byScenario[costmodel.Scenario6].Optimal.P > byScenario[costmodel.Scenario5].Optimal.P) {
		t.Error("P*(sc6) should exceed P*(sc5)")
	}
	// And T* ordering is reversed for 5 vs 6.
	if !(byScenario[costmodel.Scenario6].Optimal.T < byScenario[costmodel.Scenario5].Optimal.T) {
		t.Error("T*(sc6) should be below T*(sc5)")
	}
}

func TestFig2RenderAndCSV(t *testing.T) {
	res, err := Fig2(context.Background(), []platform.Platform{platform.Hera()}, Quick())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"Fig. 2", "Hera", "scenario 1", "scenario 6", "P* (optimal)"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
	var csvBuf bytes.Buffer
	if err := res.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvBuf.String(), "pstar_optimal") {
		t.Error("CSV missing series")
	}
}

// Fig. 3 on Hera (quick): periods fall with P, the first-order gap to the
// per-P numerical optimum stays within a fraction of a percent.
func TestFig3Hera(t *testing.T) {
	procs := []float64{256, 512, 1024}
	res, err := Fig3(context.Background(), platform.Hera(), procs, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6*len(procs) {
		t.Fatalf("expected %d points, got %d", 6*len(procs), len(res.Points))
	}
	// Periods decrease with P in every scenario (Fig. 3(a)).
	periods := map[costmodel.Scenario][]float64{}
	for _, pt := range res.Points {
		periods[pt.Scenario] = append(periods[pt.Scenario], pt.PeriodFO)
	}
	for sc, ts := range periods {
		for i := 1; i < len(ts); i++ {
			if ts[i] >= ts[i-1] {
				t.Errorf("%v: period did not decrease with P: %v", sc, ts)
			}
		}
	}
	// The overhead gap to the numerical optimum stays within 0.2%
	// (the paper's Fig. 3(c) bound for this processor range).
	for _, pt := range res.Points {
		if d := pt.DiffPercent(); d < -1e-9 || d > 0.2 {
			t.Errorf("%v P=%g: first-order gap %.4f%% outside [0, 0.2%%]",
				pt.Scenario, pt.P, d)
		}
	}
	// Scenarios sharing the same C_P form behave alike (sc1≈sc2).
	var p1, p2 float64
	for _, pt := range res.Points {
		if pt.P == 512 {
			switch pt.Scenario {
			case costmodel.Scenario1:
				p1 = pt.PeriodFO
			case costmodel.Scenario2:
				p2 = pt.PeriodFO
			}
		}
	}
	if math.Abs(p1-p2)/p1 > 0.05 {
		t.Errorf("sc1 and sc2 periods at P=512 should nearly overlap: %g vs %g", p1, p2)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 3(c)") {
		t.Error("render missing panel (c)")
	}
	var csvBuf bytes.Buffer
	if err := res.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvBuf.String(), "diff_pct/scenario 6") {
		t.Error("CSV missing diff series")
	}
}

// Fig. 4 (quick): smaller α enrolls more processors and lowers overhead.
func TestFig4Hera(t *testing.T) {
	alphas := []float64{0, 1e-3, 1e-1}
	res, err := Fig4(context.Background(), platform.Hera(), alphas, Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []costmodel.Scenario{costmodel.Scenario1, costmodel.Scenario3} {
		var ps, hs []float64
		for _, a := range alphas {
			for _, pt := range res.Points {
				if pt.Scenario == sc && pt.X == a && pt.Optimal != nil {
					ps = append(ps, pt.Optimal.P)
					hs = append(hs, pt.Optimal.SimulatedH)
				}
			}
		}
		if len(ps) != 3 {
			t.Fatalf("%v: missing optimal evals", sc)
		}
		// α increasing: P* decreasing, overhead increasing.
		if !(ps[0] > ps[1] && ps[1] > ps[2]) {
			t.Errorf("%v: P* not decreasing in α: %v", sc, ps)
		}
		if !(hs[0] < hs[1] && hs[1] < hs[2]) {
			t.Errorf("%v: overhead not increasing in α: %v", sc, hs)
		}
	}
	// α = 0 rows must have no first-order solution.
	for _, pt := range res.Points {
		if pt.X == 0 && pt.FirstOrder != nil {
			t.Error("α = 0 should have no first-order solution")
		}
		if pt.X == 0.1 && pt.Scenario != costmodel.Scenario6 && pt.FirstOrder == nil {
			t.Errorf("%v at α=0.1 should have a first-order solution", pt.Scenario)
		}
	}
}

// Fig. 5 (quick): the asymptotic orders of Theorems 2 and 3, recovered
// from the numerical optima by log-log regression.
func TestFig5AsymptoticOrders(t *testing.T) {
	lambdas := []float64{1e-12, 1e-11, 1e-10, 1e-9, 1e-8}
	res, err := Fig5(context.Background(), platform.Hera(), lambdas, Quick())
	if err != nil {
		t.Fatal(err)
	}
	slopes := res.Slopes()

	s1 := slopes[costmodel.Scenario1]
	if math.Abs(s1.P-(-0.25)) > 0.06 {
		t.Errorf("scenario 1: P* slope %.3f, want ≈ −1/4", s1.P)
	}
	if math.Abs(s1.T-(-0.5)) > 0.06 {
		t.Errorf("scenario 1: T* slope %.3f, want ≈ −1/2", s1.T)
	}
	s3 := slopes[costmodel.Scenario3]
	if math.Abs(s3.P-(-1.0/3)) > 0.06 {
		t.Errorf("scenario 3: P* slope %.3f, want ≈ −1/3", s3.P)
	}
	if math.Abs(s3.T-(-1.0/3)) > 0.06 {
		t.Errorf("scenario 3: T* slope %.3f, want ≈ −1/3", s3.T)
	}
	// Overheads tend to the α = 0.1 floor as λ shrinks.
	for _, pt := range res.Points {
		if pt.X == 1e-12 && pt.Optimal != nil {
			if pt.Optimal.SimulatedH > 0.102 || pt.Optimal.SimulatedH < 0.0999 {
				t.Errorf("%v at λ=1e-12: overhead %g should approach 0.1",
					pt.Scenario, pt.Optimal.SimulatedH)
			}
		}
	}
	// First-order accuracy improves as λ decreases: the P* gap at the
	// smallest λ is tighter than at the largest.
	gap := func(lambda float64, sc costmodel.Scenario) float64 {
		for _, pt := range res.Points {
			if pt.X == lambda && pt.Scenario == sc && pt.FirstOrder != nil && pt.Optimal != nil {
				return math.Abs(pt.FirstOrder.P-pt.Optimal.P) / pt.Optimal.P
			}
		}
		return math.NaN()
	}
	if g12, g8 := gap(1e-12, costmodel.Scenario3), gap(1e-8, costmodel.Scenario3); !(g12 <= g8+0.02) {
		t.Errorf("first-order P* gap should shrink with λ: %g (1e-12) vs %g (1e-8)", g12, g8)
	}
}

// Fig. 6 (quick): perfectly parallel orders from the numerical solution.
func TestFig6PerfectlyParallelOrders(t *testing.T) {
	lambdas := []float64{1e-12, 1e-11, 1e-10, 1e-9, 1e-8}
	res, err := Fig6(context.Background(), platform.Hera(), lambdas, Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		if pt.FirstOrder != nil {
			t.Fatal("α = 0 must not produce first-order solutions")
		}
	}
	slopes := res.Slopes()
	s1 := slopes[costmodel.Scenario1]
	if math.Abs(s1.P-(-0.5)) > 0.1 {
		t.Errorf("scenario 1: P* slope %.3f, want ≈ −1/2", s1.P)
	}
	if math.Abs(s1.H-0.5) > 0.1 {
		t.Errorf("scenario 1: H slope %.3f, want ≈ +1/2", s1.H)
	}
	s3 := slopes[costmodel.Scenario3]
	if math.Abs(s3.P-(-1)) > 0.15 {
		t.Errorf("scenario 3: P* slope %.3f, want ≈ −1", s3.P)
	}
	if math.Abs(s3.H-1) > 0.15 {
		t.Errorf("scenario 3: H slope %.3f, want ≈ +1", s3.H)
	}
	// T* = O(1) for scenario 3: slope near zero.
	if math.Abs(s3.T) > 0.15 {
		t.Errorf("scenario 3: T* slope %.3f, want ≈ 0", s3.T)
	}
}

// Fig. 7 (quick): numerical P* decreases with downtime; first-order P*
// is constant; overheads stay close.
func TestFig7DowntimeImpact(t *testing.T) {
	ds := []float64{0, 3600, 10800}
	res, err := Fig7(context.Background(), platform.Hera(), ds, Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios135 {
		var foPs, numPs, foH, numH []float64
		for _, d := range ds {
			for _, pt := range res.Points {
				if pt.Scenario != sc || pt.X != d {
					continue
				}
				if pt.FirstOrder != nil {
					foPs = append(foPs, pt.FirstOrder.P)
					foH = append(foH, pt.FirstOrder.SimulatedH)
				}
				if pt.Optimal != nil {
					numPs = append(numPs, pt.Optimal.P)
					numH = append(numH, pt.Optimal.SimulatedH)
				}
			}
		}
		if len(foPs) != 3 || len(numPs) != 3 {
			t.Fatalf("%v: missing evals", sc)
		}
		if foPs[0] != foPs[1] || foPs[1] != foPs[2] {
			t.Errorf("%v: first-order P* should ignore D: %v", sc, foPs)
		}
		if !(numPs[0] > numPs[2]) {
			t.Errorf("%v: numerical P* should decrease with D: %v", sc, numPs)
		}
		// Simulated overheads of the two solutions stay close across the
		// D range. Scenario 5 is the one the paper flags as hard for the
		// first-order analysis (the dropped b/P term is 15× the constant
		// d at P*), so it gets a wider band.
		tol := 0.02
		if sc == costmodel.Scenario5 {
			tol = 0.15
		}
		for i := range foH {
			if math.Abs(foH[i]-numH[i])/numH[i] > tol {
				t.Errorf("%v D=%g: overhead divergence fo=%g num=%g",
					sc, ds[i], foH[i], numH[i])
			}
		}
	}
}

func TestSweepRenderAndCSV(t *testing.T) {
	res, err := Fig7(context.Background(), platform.Hera(), []float64{0, 3600}, Quick())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"Fig. 7(a)", "Fig. 7(b)", "Fig. 7(c)", "sc1 first-order"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
	var csvBuf bytes.Buffer
	if err := res.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"pstar/scenario 1 (optimal)", "overhead/scenario 5 (first-order)"} {
		if !strings.Contains(csvBuf.String(), frag) {
			t.Errorf("CSV missing %q", frag)
		}
	}
}
