package optimize

import (
	"fmt"
	"math"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/xmath"
)

// Warm-vs-cold agreement bounds. Both solvers polish P to a relative √ε
// in log coordinates, where H, known to ~1e-16, no longer shows its
// curvature; on a flat basin the minimizer's position is only determined
// to ~√(rounding/curvature), so the solvers may legitimately disagree by
// ~1e-5 in (T*, P*) while agreeing far more tightly on the overhead
// itself.
const (
	sweepTolH  = 1e-8
	sweepTolXY = 1e-4
)

// lambdaAxis is a dense λ_ind axis spanning the Fig. 5/6 range.
func lambdaAxis(n int) []float64 {
	return xmath.Logspace(1e-12, 1e-8, n)
}

func modelWithLambda(t *testing.T, sc costmodel.Scenario, alpha, lambda float64) core.Model {
	t.Helper()
	m := heraModel(t, sc, alpha)
	m.LambdaInd = lambda
	return m
}

// solveChain solves every model of an ordered sweep axis with one
// SweepSolver chain, returning one result per model.
func solveChain(models []core.Model, opts SweepOptions) ([]PatternResult, error) {
	s := NewSweepSolver(opts)
	out := make([]PatternResult, len(models))
	for i, m := range models {
		res, err := s.Solve(m)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

func assertAgrees(t *testing.T, label string, warm, cold PatternResult) {
	t.Helper()
	if warm.AtPBound != cold.AtPBound {
		t.Errorf("%s: warm AtPBound=%t, cold %t", label, warm.AtPBound, cold.AtPBound)
		return
	}
	if d := xmath.RelDiff(warm.Overhead, cold.Overhead); d > sweepTolH {
		t.Errorf("%s: overhead disagrees by %.3g: warm %g vs cold %g",
			label, d, warm.Overhead, cold.Overhead)
	}
	if d := xmath.RelDiff(warm.P, cold.P); d > sweepTolXY {
		t.Errorf("%s: P* disagrees by %.3g: warm %g vs cold %g", label, d, warm.P, cold.P)
	}
	if d := xmath.RelDiff(warm.T, cold.T); d > sweepTolXY {
		t.Errorf("%s: T* disagrees by %.3g: warm %g vs cold %g", label, d, warm.T, cold.T)
	}
}

// TestBatchMatchesColdDenseLambdaAxis is the main equivalence property:
// over scenarios 1, 3 and 5 (the sweep-figure subset) × a dense λ_ind
// axis, the warm-start chain must agree with per-cell OptimalPattern on
// (T*, P*, H) within the refinement tolerance.
func TestBatchMatchesColdDenseLambdaAxis(t *testing.T) {
	for _, sc := range []costmodel.Scenario{costmodel.Scenario1, costmodel.Scenario3, costmodel.Scenario5} {
		for _, alpha := range []float64{0.1, 0} {
			models := make([]core.Model, 0, 17)
			for _, lambda := range lambdaAxis(17) {
				models = append(models, modelWithLambda(t, sc, alpha, lambda))
			}
			batch, err := solveChain(models, SweepOptions{})
			if err != nil {
				t.Fatalf("%v α=%g: %v", sc, alpha, err)
			}
			for i, m := range models {
				cold, err := OptimalPattern(m, PatternOptions{})
				if err != nil {
					t.Fatalf("%v α=%g cell %d: %v", sc, alpha, i, err)
				}
				assertAgrees(t, sc.String(), batch[i], cold)
			}
		}
	}
}

// TestBatchMatchesColdAlphaAndDowntimeAxes covers the Fig. 4 and Fig. 7
// axes: the sequential fraction (including the α = 0 perfectly parallel
// head cell, which typically pins P* to the search bound) and the
// downtime.
func TestBatchMatchesColdAlphaAndDowntimeAxes(t *testing.T) {
	alphas := []float64{0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1}
	downtimes := []float64{0, 1800, 3600, 5400, 7200, 9000, 10800}
	for _, sc := range []costmodel.Scenario{costmodel.Scenario1, costmodel.Scenario3, costmodel.Scenario5} {
		var models []core.Model
		for _, alpha := range alphas {
			models = append(models, heraModel(t, sc, alpha))
		}
		for _, d := range downtimes {
			res, err := sc.Calibrate(512, 300, 15.4, d)
			if err != nil {
				t.Fatal(err)
			}
			m := heraModel(t, sc, 0.1)
			m.Res = res
			models = append(models, m)
		}
		batch, err := solveChain(models, SweepOptions{})
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		for i, m := range models {
			cold, err := OptimalPattern(m, PatternOptions{})
			if err != nil {
				t.Fatalf("%v cell %d: %v", sc, i, err)
			}
			assertAgrees(t, sc.String(), batch[i], cold)
		}
	}
}

// TestBatchShapeFlipForcesFallback alternates objective classes along
// the axis (scenario 1 is the linear class, scenario 5 the decreasing
// class): every cell must detect the flip, re-solve cold, and still
// agree with the per-cell reference.
func TestBatchShapeFlipForcesFallback(t *testing.T) {
	var models []core.Model
	for i := 0; i < 6; i++ {
		sc := costmodel.Scenario1
		if i%2 == 1 {
			sc = costmodel.Scenario5
		}
		models = append(models, heraModel(t, sc, 0.1))
	}
	s := NewSweepSolver(SweepOptions{})
	for i, m := range models {
		res, err := s.Solve(m)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		cold, err := OptimalPattern(m, PatternOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertAgrees(t, "shape-flip", res, cold)
		if res.Warm {
			t.Errorf("cell %d: class flip must not warm-start", i)
		}
	}
	if st := s.Stats(); st.ColdSolves != len(models) || st.WarmSolves != 0 {
		t.Errorf("stats = %+v, want all %d cells cold", st, len(models))
	}
}

// TestBatchAxisJumpFallsBack drives the chain across a λ_ind jump far
// larger than the warm bracket: the warm attempt must be rejected at
// the bracket edge and the cold fallback must recover the reference
// optimum.
func TestBatchAxisJumpFallsBack(t *testing.T) {
	models := []core.Model{
		modelWithLambda(t, costmodel.Scenario3, 0.1, 1e-12),
		modelWithLambda(t, costmodel.Scenario3, 0.1, 1e-5),
	}
	s := NewSweepSolver(SweepOptions{})
	for i, m := range models {
		res, err := s.Solve(m)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		cold, err := OptimalPattern(m, PatternOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertAgrees(t, "axis-jump", res, cold)
	}
	if st := s.Stats(); st.Fallbacks == 0 {
		t.Errorf("stats = %+v, want at least one fallback across the λ jump", st)
	}
}

// TestSweepSolverColdModeBitIdentical pins Cold mode (a /v1/sweep
// request's "cold" and a campaign manifest's cold_solve): every cell
// must be bit-identical to a per-cell OptimalPattern call.
func TestSweepSolverColdModeBitIdentical(t *testing.T) {
	var models []core.Model
	for _, lambda := range lambdaAxis(5) {
		models = append(models, modelWithLambda(t, costmodel.Scenario3, 0.1, lambda))
	}
	batch, err := solveChain(models, SweepOptions{Cold: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range models {
		cold, err := OptimalPattern(m, PatternOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].T != cold.T || batch[i].P != cold.P || batch[i].Overhead != cold.Overhead {
			t.Errorf("cell %d: cold mode differs: (%v, %v, %v) vs (%v, %v, %v)",
				i, batch[i].T, batch[i].P, batch[i].Overhead, cold.T, cold.P, cold.Overhead)
		}
		if batch[i].Warm {
			t.Errorf("cell %d: cold mode flagged warm", i)
		}
	}
}

// TestSweepSolverRejectsBadOptions holds warm mode to OptimalPattern's
// option contract: an invalid search box errors instead of silently
// producing out-of-contract optima.
func TestSweepSolverRejectsBadOptions(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	for _, opts := range []PatternOptions{
		{PMin: 5, PMax: 2},    // inverted box
		{PMin: 0.5},           // processor bound below 1
		{TMin: 10, TMax: 0.1}, // inverted period box
	} {
		s := NewSweepSolver(SweepOptions{PatternOptions: opts})
		if _, err := s.Solve(m); err == nil {
			t.Errorf("options %+v accepted by warm solver", opts)
		}
	}
}

// TestBatchAmortizesEvals is the measurable-win property on a dense λ
// axis, held to two exact evaluation ceilings: the warm chain spends at
// most the 16,073 evaluations it spent with the 48-point inner period
// grid, and the 17 per-cell cold solves at most half of that grid's
// 111,810. A chain that fell back to full-box scans on every cell costs
// as much as the cold solves (40,823), far above the warm ceiling.
func TestBatchAmortizesEvals(t *testing.T) {
	const (
		warmCeiling = 16073
		coldCeiling = 111810 / 2
	)
	models := make([]core.Model, 0, 17)
	for _, lambda := range lambdaAxis(17) {
		models = append(models, modelWithLambda(t, costmodel.Scenario3, 0.1, lambda))
	}
	batch, err := solveChain(models, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warmEvals := 0
	for _, r := range batch {
		warmEvals += r.Evals
	}
	coldEvals := 0
	for _, m := range models {
		cold, err := OptimalPattern(m, PatternOptions{})
		if err != nil {
			t.Fatal(err)
		}
		coldEvals += cold.Evals
	}
	if warmEvals > warmCeiling {
		t.Errorf("warm chain used %d evals, above its ceiling of %d", warmEvals, warmCeiling)
	}
	if coldEvals > coldCeiling {
		t.Errorf("per-cell cold solves used %d evals, above their ceiling of %d", coldEvals, coldCeiling)
	}
	warmCells := 0
	for _, r := range batch {
		if r.Warm {
			warmCells++
		}
	}
	if warmCells < len(models)-2 {
		t.Errorf("only %d/%d cells warm-started on a smooth axis", warmCells, len(models))
	}
	if math.IsNaN(batch[0].Overhead) {
		t.Fatal("NaN overhead")
	}
}

// TestAtPBoundAgreesOnFlatBound pins AtPBound where H is flat to
// rounding near PMax: Coastal and CoastalSSD, scenario 6, α = 0.1, D = 0,
// where P* lands anywhere above ~0.999·PMax with H equal to ~1e-15. The
// reference scan and the first cells of a warm and a Cold chain must all
// report the bound; a test on P read it differently across the three.
// The Hera paper point, an interior optimum, must not.
func TestAtPBoundAgreesOnFlatBound(t *testing.T) {
	for _, c := range []struct {
		pl    platform.Platform
		sc    costmodel.Scenario
		d     float64
		bound bool
	}{
		{platform.Coastal(), costmodel.Scenario6, 0, true},
		{platform.CoastalSSD(), costmodel.Scenario6, 0, true},
		{platform.Hera(), costmodel.Scenario1, 3600, false},
	} {
		m, err := periodModel(c.pl, c.sc, 0.1, c.pl.LambdaInd, c.d)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := OptimalPattern(m, PatternOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, cold := range []bool{false, true} {
			got, err := NewSweepSolver(SweepOptions{Cold: cold}).Solve(m)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []PatternResult{ref, got} {
				if r.AtPBound != c.bound {
					t.Errorf("%s/%v, Cold %t: AtPBound = %t at P = %.17g (H = %.17g), want %t",
						c.pl.Name, c.sc, cold, r.AtPBound, r.P, r.Overhead, c.bound)
				}
			}
			if d := xmath.RelDiff(got.Overhead, ref.Overhead); d > 1e-14 {
				t.Errorf("%s/%v, Cold %t: H = %.17g against the reference's %.17g",
					c.pl.Name, c.sc, cold, got.Overhead, ref.Overhead)
			}
		}
	}
}

// FuzzSweepWarmMatchesCold is the warm-vs-cold differential oracle of
// SweepSolver: one warm chain along a generated axis (λ_ind log-spaced,
// or α or D linear, between two ends, with 2 to 16 cells, the other two
// parameters at their base values) against a per-cell OptimalPattern,
// on a Table II platform and scenario, with or without IntegerP. Every
// cell must agree on the error status and AtPBound and put H within
// sweepTolH (relative). T* and P* are not compared: on a basin flat to
// rounding they differ by more than sweepTolXY at equal H. The seed
// corpus (testdata/fuzz/FuzzSweepWarmMatchesCold) holds the Fig. 4, 5
// and 7 axes at their defaults, such a flat basin (Coastal, scenario 6,
// D = 0), a λ axis onto the feasible island of FuzzOptimalPattern's
// seed feasible-island-between-grid-points, which the warm bracket found
// and a cold scan without its rescan did not, and two findings of this
// target: α = 1, where g is flat to rounding up to PMax and a warm
// bracket short of PMax reported no bound (alpha-one-flat-to-pmax), and
// a cell whose optimum sits where g turns infinite, which the warm
// bracket reached and the cold grid's polish did not
// (lambda-axis-onto-overflow-edge).
func FuzzSweepWarmMatchesCold(f *testing.F) {
	f.Fuzz(func(t *testing.T, plat, sc, axis, cells uint8, lo, hi, alpha, lambda, downtime float64, integerP bool) {
		pl := platform.All()[int(plat)%4]
		scenario := costmodel.Scenario(1 + int(sc)%6)
		n := 2 + int(cells)%15
		var xs []float64
		if axis%3 == 0 {
			if !(lo > 0 && hi > 0) || math.IsInf(lo, 1) || math.IsInf(hi, 1) {
				return
			}
			xs = xmath.Logspace(lo, hi, n)
		} else {
			xs = xmath.Linspace(lo, hi, n)
		}
		models := make([]core.Model, n)
		for i, x := range xs {
			a, l, d := alpha, lambda, downtime
			switch axis % 3 {
			case 0:
				l = x
			case 1:
				a = x
			case 2:
				d = x
			}
			m, err := periodModel(pl, scenario, a, l, d)
			if err != nil {
				return
			}
			models[i] = m
		}
		opts := PatternOptions{IntegerP: integerP}
		s := NewSweepSolver(SweepOptions{PatternOptions: opts})
		for i, m := range models {
			warm, werr := s.Solve(m)
			cold, cerr := OptimalPattern(m, opts)
			cell := func() string {
				return fmt.Sprintf("%s/%v axis %d cell %d/%d (x = %g, α=%g λ=%g D=%g, IntegerP %t)",
					pl.Name, scenario, axis%3, i, n, xs[i], alpha, lambda, downtime, integerP)
			}
			switch {
			case (werr != nil) != (cerr != nil):
				t.Fatalf("%s: warm error %v, cold error %v", cell(), werr, cerr)
			case werr != nil:
			case warm.AtPBound != cold.AtPBound:
				t.Fatalf("%s: AtPBound warm %t, cold %t (H %.17g against %.17g)",
					cell(), warm.AtPBound, cold.AtPBound, warm.Overhead, cold.Overhead)
			case !(xmath.RelDiff(warm.Overhead, cold.Overhead) <= sweepTolH):
				t.Fatalf("%s: H warm %.17g at P = %g, cold %.17g at P = %g",
					cell(), warm.Overhead, warm.P, cold.Overhead, cold.P)
			}
		}
	})
}

// TestWarmCellEvals pins what a warm single-level cell costs against a
// cold solve: the 24 Table II × Table III models (α = 0.1, D = 3,600 s),
// each on a 16-cell λ_ind axis over 1e-12 … 1e-8, the axis a serving
// sweep walks. A warm cell is the previous optimum, its two neighbours
// one cold-grid step away and one seeded polish; its mean kernel calls
// must be at most 0.6× those of a per-cell cold solve, and no cell may
// fall back. A 10-point grid over a ×32 bracket costs 0.75× and fails
// the ratio.
func TestWarmCellEvals(t *testing.T) {
	warmEvals, warmCells, coldEvals, coldCells := 0, 0, 0, 0
	for _, pl := range platform.All() {
		for _, sc := range costmodel.AllScenarios {
			s := NewSweepSolver(SweepOptions{})
			for i, lambda := range lambdaAxis(16) {
				m, err := periodModel(pl, sc, 0.1, lambda, 3600)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Solve(m)
				if err != nil {
					t.Fatalf("%s/%v cell %d: %v", pl.Name, sc, i, err)
				}
				cold, err := OptimalPattern(m, PatternOptions{})
				if err != nil {
					t.Fatalf("%s/%v cell %d: %v", pl.Name, sc, i, err)
				}
				coldEvals += cold.Evals
				coldCells++
				if i > 0 {
					warmEvals += res.Evals
					warmCells++
				}
			}
			if st := s.Stats(); st.Fallbacks != 0 {
				t.Errorf("%s/%v: %d fallbacks on a smooth λ axis", pl.Name, sc, st.Fallbacks)
			}
		}
	}
	warm, cold := float64(warmEvals)/float64(warmCells), float64(coldEvals)/float64(coldCells)
	t.Logf("mean kernel calls: warm cell %.1f, cold solve %.1f (%.2f×)", warm, cold, warm/cold)
	if warm > 0.6*cold {
		t.Errorf("warm cell %.1f kernel calls, above 0.6× a cold solve's %.1f", warm, cold)
	}
}
