package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/xmath"
)

func quickHeteroStudy(t *testing.T) *HeteroResult {
	t.Helper()
	cfg := Quick()
	cfg.Seed = 42
	res, err := HeterogeneousStudy(context.Background(), platform.Hera(),
		[]float64{0, 1e-5, 1e-4}, []float64{0.25},
		[]costmodel.Scenario{costmodel.Scenario1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHeterogeneousStudyShape(t *testing.T) {
	res := quickHeteroStudy(t)
	if len(res.Cells) != 3 {
		t.Fatalf("expected 3 cells, got %d", len(res.Cells))
	}
	for i, c := range res.Cells {
		if c.Active < 1 || c.Active > 2 {
			t.Errorf("cell %d: active = %d", i, c.Active)
		}
		if !(c.PredictedH > 0) {
			t.Errorf("cell %d: predicted H = %g", i, c.PredictedH)
		}
		if math.IsNaN(c.SimulatedH) {
			t.Errorf("cell %d: unsimulable", i)
		}
		// Model and Monte-Carlo must agree within the quick budget's noise.
		if d := xmath.RelDiff(c.SimulatedH, c.PredictedH); d > 0.15 {
			t.Errorf("cell %d: sim %g vs model %g (rel %g)", i, c.SimulatedH, c.PredictedH, d)
		}
		if !(c.SingleH > 0) {
			t.Errorf("cell %d: baseline H = %g", i, c.SingleH)
		}
	}
	// At zero comm the fast accelerator must participate and beat the
	// CPU-only baseline's prediction.
	if res.Cells[0].Active != 2 {
		t.Errorf("zero-comm cell should use both groups, got G=%d", res.Cells[0].Active)
	}
	if !(res.Cells[0].PredictedH < res.Cells[2].PredictedH) {
		t.Errorf("overhead should grow with κ: %g !< %g",
			res.Cells[0].PredictedH, res.Cells[2].PredictedH)
	}
}

func TestHeterogeneousStudyRenderAndCSV(t *testing.T) {
	res := quickHeteroStudy(t)
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Heterogeneous study on Hera", "P accel", "x accel", "H sim (cpu)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	buf.Reset()
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	for _, want := range []string{"overhead_sim", "x_accel", "saving_pct"} {
		if !strings.Contains(csv, want) {
			t.Errorf("CSV missing series %q", want)
		}
	}
}

// TestHeterogeneousStudyRejectsNonPositiveSplits: a split of 0 or -1
// would be rounded up to a one-processor accelerator and reported under
// the split that was asked for; it is an error naming the value.
func TestHeterogeneousStudyRejectsNonPositiveSplits(t *testing.T) {
	cfg := Config{Runs: 2, Patterns: 2, Seed: 1}
	for _, split := range []float64{0, -1} {
		_, err := HeterogeneousStudy(context.Background(), platform.Hera(),
			[]float64{0}, []float64{0.25, split},
			[]costmodel.Scenario{costmodel.Scenario1}, cfg)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("split %g is not positive", split)) {
			t.Errorf("split %g: err = %v; want it rejected by value", split, err)
		}
	}
}

// TestHeteroColdSolveEvals pins the mean kernel calls of a cold
// hetero.OptimalPattern on the study topology (comm 1e-5, split 0.25,
// α = 0.1, D = 3,600 s) over the four platforms and six scenarios: each
// solve runs the single-level scan for every group at every active
// count. Counts do not depend on the host; a 96-point grid polished to a
// relative 1e-10 (1,471) fails the ceiling.
func TestHeteroColdSolveEvals(t *testing.T) {
	total, n := 0, 0
	for _, pl := range platform.All() {
		for _, sc := range costmodel.AllScenarios {
			hm, err := hetero.CompileTopology(HeteroStudyTopology(pl, 1e-5, 0.25), sc, 0.1, 3600)
			if err != nil {
				t.Fatal(err)
			}
			res, err := hetero.OptimalPattern(hm, hetero.PatternOptions{})
			if err != nil {
				t.Fatalf("%s/%v: %v", pl.Name, sc, err)
			}
			total += res.Evals
			n++
		}
	}
	mean := float64(total) / float64(n)
	t.Logf("mean evaluations per cold hetero solve: %.1f", mean)
	if mean > 420 {
		t.Errorf("mean evaluations per cold hetero solve %.1f, want at most 420", mean)
	}
}

func TestHeteroStudyTopologyShape(t *testing.T) {
	tp := HeteroStudyTopology(platform.Hera(), 1e-5, 0.25)
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tp.Groups) != 2 || tp.Groups[1].Size != 128 || tp.Groups[1].Speed != 8 {
		t.Errorf("unexpected topology: %+v", tp)
	}
	// Tiny splits clamp to at least one processor.
	tiny := HeteroStudyTopology(platform.Hera(), 0, 1e-9)
	if tiny.Groups[1].Size != 1 {
		t.Errorf("split clamp failed: %g", tiny.Groups[1].Size)
	}
}

// TestCPUOnlyBaselineIsTheDegenerateHeteroSolve: the heterogeneous
// study's CPU-only baseline is the classical optimum on integral
// allocations with PMax at the CPU size, which is what the hetero solver
// returns for the one-group topology platform.SingleGroup. T, P, H and
// AtPBound agree bit for bit on every platform and scenario at α ∈
// {0, 1e-4, 0.1, 0.5} and D ∈ {0, 3,600 s}.
func TestCPUOnlyBaselineIsTheDegenerateHeteroSolve(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, pl := range platform.All() {
		for _, sc := range costmodel.AllScenarios {
			for _, alpha := range []float64{0, 1e-4, 0.1, 0.5} {
				for _, downtime := range []float64{0, 3600} {
					name := fmt.Sprintf("%s/%v/α=%g/D=%g", pl.Name, sc, alpha, downtime)
					m, err := BuildModel(pl, sc, alpha, downtime)
					if err != nil {
						t.Fatal(err)
					}
					num, err := optimize.OptimalPattern(m, optimize.PatternOptions{IntegerP: true, PMax: pl.Processors})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					hm, err := hetero.CompileTopology(platform.SingleGroup(pl), sc, alpha, downtime)
					if err != nil {
						t.Fatal(err)
					}
					res, err := hetero.OptimalPattern(hm, hetero.PatternOptions{
						PatternOptions: optimize.PatternOptions{IntegerP: true}})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					g := res.Groups[0]
					if res.Active != 1 || !same(g.T, num.T) || !same(g.P, num.P) ||
						!same(res.Overhead, num.Overhead) || g.AtPBound != num.AtPBound {
						t.Errorf("%s: hetero (T %v, P %v, H %v, at bound %t, G %d) != classical (T %v, P %v, H %v, at bound %t)",
							name, g.T, g.P, res.Overhead, g.AtPBound, res.Active, num.T, num.P, num.Overhead, num.AtPBound)
					}
				}
			}
		}
	}
}
