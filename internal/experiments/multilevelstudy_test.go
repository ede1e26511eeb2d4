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
