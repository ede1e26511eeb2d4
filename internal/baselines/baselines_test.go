package baselines

import (
	"math"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/optimize"
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

func TestYoungPeriodFormula(t *testing.T) {
	// sqrt(2·300·3600) classic textbook case.
	got := YoungPeriod(300, 3600)
	want := math.Sqrt(2 * 300 * 3600)
	if !xmath.EqualWithin(got, want, 1e-12, 0) {
		t.Errorf("Young = %g, want %g", got, want)
	}
	if !math.IsNaN(YoungPeriod(0, 100)) || !math.IsNaN(YoungPeriod(100, 0)) {
		t.Error("degenerate inputs should be NaN")
	}
}

// Theorem 1 degenerates to Young's formula when silent errors vanish and
// verification is free: T* = sqrt(C/(λf/2)) = sqrt(2·C·μ).
func TestTheorem1ReducesToYoung(t *testing.T) {
	m := heraModel(t, costmodel.Scenario3, 0.1)
	m.FailStopFrac, m.SilentFrac = 1, 0
	m.Res.Verification = costmodel.Verification{}
	p := 512.0
	lf, _ := m.Rates(p)
	young := YoungPeriod(m.Res.Checkpoint.At(p), 1/lf)
	theorem1 := m.OptimalPeriodFixedP(p)
	if !xmath.EqualWithin(young, theorem1, 1e-12, 0) {
		t.Errorf("Young %g != Theorem 1 %g in the fail-stop-only limit", young, theorem1)
	}
}

func TestDalyPeriod(t *testing.T) {
	// For C ≪ μ, Daly ≈ Young − C + small corrections.
	c, mu := 300.0, 1e6
	daly := DalyPeriod(c, mu)
	young := YoungPeriod(c, mu)
	if daly >= young {
		t.Errorf("Daly %g should sit below Young %g (the −C term dominates)", daly, young)
	}
	if math.Abs(daly-(young-c))/young > 0.01 {
		t.Errorf("Daly %g far from Young−C = %g", daly, young-c)
	}
	// Saturation branch: C >= 2μ.
	if got := DalyPeriod(500, 100); got != 100 {
		t.Errorf("saturated Daly = %g, want μ", got)
	}
	if !math.IsNaN(DalyPeriod(-1, 100)) {
		t.Error("negative C should be NaN")
	}
}

func TestDalyBeatsYoungNearSaturation(t *testing.T) {
	// When C is a sizeable fraction of μ, Daly's higher-order period
	// yields a strictly better overhead than Young under a pure
	// fail-stop model.
	m := heraModel(t, costmodel.Scenario3, 0.1)
	m.FailStopFrac, m.SilentFrac = 1, 0
	m.LambdaInd = 2e-6 // heavy failure pressure: μ_P ≈ 977 s vs C = 300 s
	p := 512.0
	lf, _ := m.Rates(p)
	cv := m.Res.CombinedVC(p)
	hYoung := m.Overhead(YoungPeriod(cv, 1/lf), p)
	hDaly := m.Overhead(DalyPeriod(cv, 1/lf), p)
	if hDaly >= hYoung {
		t.Errorf("Daly overhead %g should beat Young %g near saturation", hDaly, hYoung)
	}
}

func TestIgnoreSilentPreservesFailStopRate(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	ig := IgnoreSilent(m)
	lfBefore, _ := m.Rates(512)
	lfAfter, lsAfter := ig.Rates(512)
	if !xmath.EqualWithin(lfBefore, lfAfter, 1e-12, 0) {
		t.Errorf("fail-stop rate changed: %g → %g", lfBefore, lfAfter)
	}
	if lsAfter != 0 {
		t.Errorf("silent rate should be zero, got %g", lsAfter)
	}
	if err := ig.Validate(); err != nil {
		t.Errorf("IgnoreSilent produced invalid model: %v", err)
	}
}

func TestPlanYoungUnderestimatesTrueCost(t *testing.T) {
	// A Young plan derived from fail-stop errors alone must look cheaper
	// to the fail-stop-only model than it truly is under both sources.
	m := heraModel(t, costmodel.Scenario1, 0.1)
	plan, err := PlanYoung(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	if plan.AssumedOverhead >= plan.TrueOverhead {
		t.Errorf("assumed %g should undercut true %g", plan.AssumedOverhead, plan.TrueOverhead)
	}
	// And the full-model optimal period must beat the Young plan.
	tStar, hStar, err := optimize.OptimalPeriod(m, 512, optimize.PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hStar > plan.TrueOverhead {
		t.Errorf("VC-optimal overhead %g (T=%g) worse than Young plan %g (T=%g)",
			hStar, tStar, plan.TrueOverhead, plan.T)
	}
}

func TestPlanYoungOverchecksForSilentErrors(t *testing.T) {
	// Ignoring silent errors means checkpointing too rarely: the Young
	// period must exceed the full-model optimum.
	m := heraModel(t, costmodel.Scenario1, 0.1)
	plan, err := PlanYoung(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	full := m.OptimalPeriodFixedP(512)
	if plan.T <= full {
		t.Errorf("Young period %g should exceed full-model period %g", plan.T, full)
	}
}

func TestPlanDaly(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	planY, err := PlanYoung(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	planD, err := PlanDaly(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	if planD.T >= planY.T {
		t.Errorf("Daly period %g should be below Young %g", planD.T, planY.T)
	}
}

func TestPlanErrorsWithoutFailStop(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	m.FailStopFrac, m.SilentFrac = 0, 1
	if _, err := PlanYoung(m, 512); err == nil {
		t.Error("Young with zero fail-stop rate accepted")
	}
}

func TestIterativeRelaxationConstantCostOneStep(t *testing.T) {
	// With a truly constant cost the frozen-cost map is exact: the
	// procedure must land on Theorem 3 immediately and agree with it.
	m := heraModel(t, costmodel.Scenario3, 0.1)
	sol, iters, err := IterativeRelaxation(m, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	fo, err := m.FirstOrder()
	if err != nil {
		t.Fatal(err)
	}
	if xmath.RelDiff(sol.P, fo.P) > 1e-6 {
		t.Errorf("relaxation P = %g, Theorem 3 P = %g (iters=%d)", sol.P, fo.P, iters)
	}
	if sol.Method != "iterative-relaxation" {
		t.Errorf("method = %q", sol.Method)
	}
}

func TestIterativeRelaxationLinearCostBias(t *testing.T) {
	// With linearly growing cost the relaxation converges to an
	// allocation √2 larger on the α-term than Theorem 2 — close enough
	// to be a credible baseline, far enough to measure.
	m := heraModel(t, costmodel.Scenario1, 0.1)
	sol, _, err := IterativeRelaxation(m, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	fo, err := m.FirstOrder()
	if err != nil {
		t.Fatal(err)
	}
	ratio := sol.P / fo.P
	if math.Abs(ratio-math.Sqrt2) > 0.1 {
		t.Errorf("relaxation/theorem2 allocation ratio = %g, expected ≈√2", ratio)
	}
	// The overhead penalty of the bias is small (flat optimum).
	num, err := optimize.OptimalPattern(m, optimize.PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if (sol.Overhead-num.Overhead)/num.Overhead > 0.02 {
		t.Errorf("relaxation overhead %g too far above optimal %g", sol.Overhead, num.Overhead)
	}
}

func TestIterativeRelaxationPerfectlyParallel(t *testing.T) {
	m := heraModel(t, costmodel.Scenario3, 0)
	sol, _, err := IterativeRelaxation(m, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Stationarity of 1/P + 2 sqrt(d·fs·λ·P): P = (d·fs·λ)^(-1/3).
	fs := m.FailStopFrac/2 + m.SilentFrac
	want := math.Cbrt(1 / (315.4 * fs * m.LambdaInd))
	if xmath.RelDiff(sol.P, want) > 1e-6 {
		t.Errorf("perfectly parallel relaxation P = %g, want %g", sol.P, want)
	}
}

func TestIterativeRelaxationRejectsBadInput(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	m.LambdaInd = 0
	if _, _, err := IterativeRelaxation(m, 0, 0); err == nil {
		t.Error("zero rate accepted")
	}
	m2 := heraModel(t, costmodel.Scenario1, 0.1)
	m2.Profile = speedup.Gustafson{Alpha: 0.1}
	if _, _, err := IterativeRelaxation(m2, 0, 0); err == nil {
		t.Error("unsupported profile accepted")
	}
	m3 := heraModel(t, costmodel.Scenario1, 0.1)
	m3.FailStopFrac = 2
	if _, _, err := IterativeRelaxation(m3, 0, 0); err == nil {
		t.Error("invalid model accepted")
	}
}
