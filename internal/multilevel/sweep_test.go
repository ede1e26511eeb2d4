package multilevel

import (
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/xmath"
)

// Warm-vs-cold agreement bounds, mirroring the single-level sweep tests:
// the overhead is determined to ~Tol², the minimizer's position only to
// ~√Tol on flat basins. K is integral and jumps only at measure-zero
// boundaries, so K disagreement is tolerated only when the overheads tie
// to far below the H bound.
const (
	mlSweepTolH  = 1e-8
	mlSweepTolXY = 1e-4
)

func mlLambdaAxis(n int) []float64 {
	return xmath.Logspace(1e-12, 1e-8, n)
}

func assertJointAgrees(t *testing.T, label string, warm, cold PatternResult) {
	t.Helper()
	if warm.AtPBound != cold.AtPBound {
		t.Errorf("%s: warm AtPBound=%t, cold %t", label, warm.AtPBound, cold.AtPBound)
		return
	}
	if d := xmath.RelDiff(warm.PredictedH, cold.PredictedH); d > mlSweepTolH {
		t.Errorf("%s: overhead disagrees by %.3g: warm %g vs cold %g",
			label, d, warm.PredictedH, cold.PredictedH)
	}
	if d := xmath.RelDiff(warm.P, cold.P); d > mlSweepTolXY {
		t.Errorf("%s: P* disagrees by %.3g: warm %g vs cold %g", label, d, warm.P, cold.P)
	}
	if warm.K != cold.K {
		// Legitimate only on an exact K-tie boundary, where both integer
		// candidates price identically to within the overhead tolerance.
		if d := xmath.RelDiff(warm.PredictedH, cold.PredictedH); d > mlSweepTolH {
			t.Errorf("%s: K disagrees (%d vs %d) without an overhead tie", label, warm.K, cold.K)
		}
	} else if d := xmath.RelDiff(warm.T, cold.T); d > mlSweepTolXY {
		t.Errorf("%s: T* disagrees by %.3g: warm %g vs cold %g", label, d, warm.T, cold.T)
	}
}

// TestMultilevelBatchMatchesColdLambdaAxis is the main equivalence
// property: over a dense λ_ind axis the warm chain must agree with
// per-cell OptimalPattern on (T*, K*, P*, H).
func TestMultilevelBatchMatchesColdLambdaAxis(t *testing.T) {
	const frac = 20.0 / 300
	for _, sc := range []costmodel.Scenario{costmodel.Scenario1, costmodel.Scenario3, costmodel.Scenario5} {
		models := make([]core.Model, 0, 17)
		for _, lambda := range mlLambdaAxis(17) {
			models = append(models, jointModel(t, sc, 0.1, lambda))
		}
		chain := NewSweepSolver(SweepOptions{})
		batch := make([]PatternResult, len(models))
		for i, m := range models {
			res, err := chain.Solve(m, InMemoryFraction(m, frac))
			if err != nil {
				t.Fatalf("%v: %v", sc, err)
			}
			batch[i] = res
		}
		for i, m := range models {
			cold, err := OptimalPattern(m, InMemoryFraction(m, frac), PatternOptions{})
			if err != nil {
				t.Fatalf("%v cell %d: %v", sc, i, err)
			}
			assertJointAgrees(t, sc.String(), batch[i], cold)
		}
	}
}

// TestMultilevelBatchMatchesColdAlphaAndFracAxes covers the remaining
// axes: the sequential fraction (including the α = 0 perfectly parallel
// head cell) and the in-memory cost fraction — the C1 axis, where the
// model is fixed and the protocol cost varies.
func TestMultilevelBatchMatchesColdAlphaAndFracAxes(t *testing.T) {
	alphas := []float64{0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1}
	var models []core.Model
	for _, alpha := range alphas {
		models = append(models, jointModel(t, costmodel.Scenario3, alpha, 1.69e-8))
	}
	chain := NewSweepSolver(SweepOptions{})
	batch := make([]PatternResult, len(models))
	for i, m := range models {
		res, err := chain.Solve(m, InMemoryFraction(m, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = res
	}
	for i, m := range models {
		cold, err := OptimalPattern(m, InMemoryFraction(m, 0.1), PatternOptions{})
		if err != nil {
			t.Fatalf("alpha cell %d: %v", i, err)
		}
		assertJointAgrees(t, "alpha-axis", batch[i], cold)
	}

	// The C1 axis: one model, the in-memory fraction swept through its
	// whole range on a single chain.
	m := jointModel(t, costmodel.Scenario3, 0.1, 1.69e-8)
	s := NewSweepSolver(SweepOptions{})
	warm := 0
	for _, frac := range []float64{0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1} {
		res, err := s.Solve(m, InMemoryFraction(m, frac))
		if err != nil {
			t.Fatalf("frac %g: %v", frac, err)
		}
		if res.Warm {
			warm++
		}
		cold, err := OptimalPattern(m, InMemoryFraction(m, frac), PatternOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertJointAgrees(t, "frac-axis", res, cold)
	}
	if warm == 0 {
		t.Error("no warm solves on a smooth fraction axis")
	}
}

// TestMultilevelAxisJumpFallsBack drives the chain across a λ_ind jump
// far larger than the warm bracket: the warm attempt must be rejected at
// the bracket edge and the cold fallback must recover the reference.
func TestMultilevelAxisJumpFallsBack(t *testing.T) {
	const frac = 20.0 / 300
	models := []core.Model{
		jointModel(t, costmodel.Scenario3, 0.1, 1e-12),
		jointModel(t, costmodel.Scenario3, 0.1, 1e-5),
	}
	s := NewSweepSolver(SweepOptions{})
	for i, m := range models {
		res, err := s.Solve(m, InMemoryFraction(m, frac))
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		cold, err := OptimalPattern(m, InMemoryFraction(m, frac), PatternOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertJointAgrees(t, "axis-jump", res, cold)
		// The second cell is seeded by the first, so it tries the warm
		// bracket; a result that is not Warm is the full-box fallback.
		if i > 0 && res.Warm {
			t.Errorf("cell %d: warm solve accepted across the λ jump; want the fallback", i)
		}
	}
}

// TestMultilevelColdModeBitIdentical pins the escape hatch: Cold mode
// must return bit-identical results to per-cell OptimalPattern.
func TestMultilevelColdModeBitIdentical(t *testing.T) {
	const frac = 0.1
	var models []core.Model
	for _, lambda := range mlLambdaAxis(5) {
		models = append(models, jointModel(t, costmodel.Scenario3, 0.1, lambda))
	}
	chain := NewSweepSolver(SweepOptions{Cold: true})
	batch := make([]PatternResult, len(models))
	for i, m := range models {
		res, err := chain.Solve(m, InMemoryFraction(m, frac))
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = res
	}
	for i, m := range models {
		cold, err := OptimalPattern(m, InMemoryFraction(m, frac), PatternOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].T != cold.T || batch[i].K != cold.K || batch[i].P != cold.P ||
			batch[i].PredictedH != cold.PredictedH {
			t.Errorf("cell %d: cold mode differs: %+v vs %+v", i, batch[i], cold)
		}
		if batch[i].Warm {
			t.Errorf("cell %d: cold mode flagged warm", i)
		}
	}
}

// TestMultilevelBatchAmortizesEvals: the measurable win — the warm chain
// must spend a small fraction of the per-cell inner solves.
func TestMultilevelBatchAmortizesEvals(t *testing.T) {
	const frac = 20.0 / 300
	models := make([]core.Model, 0, 17)
	for _, lambda := range mlLambdaAxis(17) {
		models = append(models, jointModel(t, costmodel.Scenario3, 0.1, lambda))
	}
	chain := NewSweepSolver(SweepOptions{})
	batch := make([]PatternResult, len(models))
	for i, m := range models {
		res, err := chain.Solve(m, InMemoryFraction(m, frac))
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = res
	}
	warmEvals, warmCells := 0, 0
	for _, r := range batch {
		warmEvals += r.Evals
		if r.Warm {
			warmCells++
		}
	}
	coldEvals := 0
	for _, m := range models {
		cold, err := OptimalPattern(m, InMemoryFraction(m, frac), PatternOptions{})
		if err != nil {
			t.Fatal(err)
		}
		coldEvals += cold.Evals
	}
	if warmEvals*3 > coldEvals {
		t.Errorf("warm chain used %d inner solves vs %d cold: below the 3× amortization floor",
			warmEvals, coldEvals)
	}
	if warmCells < len(models)-2 {
		t.Errorf("only %d/%d cells warm-started on a smooth axis", warmCells, len(models))
	}
}

// TestMultilevelSweepSolverRejectsBadOptions holds warm mode to the
// option contract.
func TestMultilevelSweepSolverRejectsBadOptions(t *testing.T) {
	m := jointModel(t, costmodel.Scenario3, 0.1, 1.69e-8)
	for _, opts := range []PatternOptions{
		{PMin: 5, PMax: 2}, // inverted box
		{PMin: 0.5},        // processor bound below 1
	} {
		s := NewSweepSolver(SweepOptions{PatternOptions: opts})
		if _, err := s.Solve(m, InMemoryFraction(m, 0.1)); err == nil {
			t.Errorf("options %+v accepted by warm solver", opts)
		}
	}
}
