package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/xmath"
)

func quickHeteroStudy(t *testing.T, cold bool) *HeteroResult {
	t.Helper()
	cfg := Quick()
	cfg.Seed = 42
	cfg.ColdSolve = cold
	res, err := HeterogeneousStudy(context.Background(), platform.Hera(),
		[]float64{0, 1e-5, 1e-4}, []float64{0.25},
		[]costmodel.Scenario{costmodel.Scenario1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHeterogeneousStudyShape(t *testing.T) {
	res := quickHeteroStudy(t, false)
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

// TestHeterogeneousStudyWarmColdIdentical pins the -warm escape hatch:
// with integral allocations, warm and cold studies produce bit-identical
// cells (same optima, same seeds, same campaigns).
func TestHeterogeneousStudyWarmColdIdentical(t *testing.T) {
	warm := quickHeteroStudy(t, false)
	cold := quickHeteroStudy(t, true)
	for i := range warm.Cells {
		wc, cc := warm.Cells[i], cold.Cells[i]
		wc.Warm, cc.Warm = false, false
		// Format-compare: an inactive group's allocation is NaN, and
		// NaN != NaN would fail a direct struct comparison on equal cells.
		w, c := fmt.Sprintf("%+v", wc), fmt.Sprintf("%+v", cc)
		if w != c {
			t.Errorf("cell %d differs warm vs cold:\n warm %s\n cold %s", i, w, c)
		}
	}
}

func TestHeterogeneousStudyRenderAndCSV(t *testing.T) {
	res := quickHeteroStudy(t, false)
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
