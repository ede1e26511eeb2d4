package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
)

// TestMultilevelStudyBasics runs the study at the quick budget and
// checks the structural invariants: every cell solved, integral
// allocations, simulated overheads near their first-order predictions,
// and a positive saving somewhere on the cheap-C1 edge (the economic
// point of the protocol).
func TestMultilevelStudyBasics(t *testing.T) {
	cfg := Quick()
	cfg.Seed = 3
	res, err := MultilevelStudy(context.Background(), platform.Hera(), nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(scenarios135)*len(DefaultMultilevelFractions) {
		t.Fatalf("%d cells", len(res.Cells))
	}
	anySaving := false
	for _, c := range res.Cells {
		if c.K < 1 || !(c.T > 0) {
			t.Errorf("%v/frac=%g: degenerate pattern %+v", c.Scenario, c.Frac, c)
		}
		if c.P != math.Floor(c.P) {
			t.Errorf("%v/frac=%g: non-integral allocation %g", c.Scenario, c.Frac, c.P)
		}
		if !c.AtBound {
			if math.IsNaN(c.SimulatedH) {
				t.Errorf("%v/frac=%g: unsimulated interior cell", c.Scenario, c.Frac)
			} else if d := math.Abs(c.SimulatedH-c.PredictedH) / c.PredictedH; d > 0.05 {
				t.Errorf("%v/frac=%g: simulated %g vs predicted %g (%.1f%%)",
					c.Scenario, c.Frac, c.SimulatedH, c.PredictedH, d*100)
			}
		}
		if c.SavingPct > 0 {
			anySaving = true
		}
	}
	if !anySaving {
		t.Error("no cell shows a two-level saving — the study's economic claim fails")
	}

	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Multilevel study") {
		t.Error("render missing title")
	}
	buf.Reset()
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "kstar") {
		t.Error("CSV missing kstar series")
	}
}

// TestMultilevelStudyWarmColdRenderByteIdentical is the figure-level
// equivalence pin (the amdahl-exp multilevel -warm acceptance
// criterion): warm and cold chains land on bit-identical integral
// allocations, so the phase-2 campaigns replay bit-identically and the
// rendered tables must be byte-identical for a fixed seed.
func TestMultilevelStudyWarmColdRenderByteIdentical(t *testing.T) {
	cfg := Quick()
	cfg.Seed = 7
	run := func(cold bool) (string, *MultilevelResult) {
		c := cfg
		c.ColdSolve = cold
		res, err := MultilevelStudy(context.Background(), platform.Hera(), nil, nil, c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), res
	}
	warmOut, warmRes := run(false)
	coldOut, coldRes := run(true)
	if warmOut != coldOut {
		t.Errorf("warm and cold multilevel renders differ:\n--- warm ---\n%s\n--- cold ---\n%s",
			warmOut, coldOut)
	}
	warmCells := 0
	for i := range coldRes.Cells {
		w, c := warmRes.Cells[i], coldRes.Cells[i]
		if w.P != c.P || w.K != c.K || w.T != c.T {
			t.Errorf("cell %d: warm optimum (%g, %d, %g) vs cold (%g, %d, %g)",
				i, w.T, w.K, w.P, c.T, c.K, c.P)
		}
		if w.Warm {
			warmCells++
		}
	}
	if warmCells == 0 {
		t.Error("no warm cells: the chains never warm-started")
	}
}

// TestMultilevelStudyCancellation: a cancelled context must abort the
// study promptly with ctx.Err().
func TestMultilevelStudyCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MultilevelStudy(ctx, platform.Hera(), nil, nil, Quick())
	if err == nil {
		t.Fatal("cancelled study returned nil error")
	}
}

// TestMultilevelStudySingleScenario exercises the -scenario restriction.
func TestMultilevelStudySingleScenario(t *testing.T) {
	cfg := Quick()
	res, err := MultilevelStudy(context.Background(), platform.Hera(), []float64{0.1}, []costmodel.Scenario{costmodel.Scenario2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 || res.Cells[0].Scenario != costmodel.Scenario2 {
		t.Fatalf("unexpected cells %+v", res.Cells)
	}
}
