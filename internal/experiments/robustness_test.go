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

func TestRobustnessStudyWeibull(t *testing.T) {
	cfg := Quick()
	cfg.Seed = 1
	res, err := RobustnessStudy(context.Background(), platform.Hera(), "weibull", []float64{0.7, 1},
		[]costmodel.Scenario{costmodel.Scenario1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Unsimulable {
			t.Fatalf("cell %+v unsimulable", c)
		}
		if !(c.T > 0) || !(c.P >= 1) {
			t.Errorf("bad pattern in cell: T=%g P=%g", c.T, c.P)
		}
		// The grid includes the naive period with the same seed, so the
		// re-tuned overhead can never exceed it.
		if c.RetunedH > c.NaiveH {
			t.Errorf("retuned H %g > naive H %g", c.RetunedH, c.NaiveH)
		}
		if c.GapPct < 0 {
			t.Errorf("negative gap %g%%", c.GapPct)
		}
		if math.IsNaN(c.NaiveH) || math.IsNaN(c.RetunedH) {
			t.Errorf("NaN overheads in simulable cell: %+v", c)
		}
	}
	// Shape 1 is exponential in distribution: the simulated overhead of
	// the exponential optimum must sit near the model prediction (wide
	// tolerance — Quick budget).
	unit := res.Cells[1]
	if unit.Shape != 1 {
		t.Fatalf("cell order: want shape 1 second, got %g", unit.Shape)
	}
	if rel := math.Abs(unit.NaiveH-unit.PredictedH) / unit.PredictedH; rel > 0.10 {
		t.Errorf("shape-1 naive H %g vs predicted %g (rel %g)", unit.NaiveH, unit.PredictedH, rel)
	}
}

func TestRobustnessStudyDeterministic(t *testing.T) {
	cfg := Quick()
	cfg.Seed = 3
	sc := []costmodel.Scenario{costmodel.Scenario3}
	a, err := RobustnessStudy(context.Background(), platform.Hera(), "weibull", []float64{0.6}, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RobustnessStudy(context.Background(), platform.Hera(), "weibull", []float64{0.6}, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cells[0] != b.Cells[0] {
		t.Errorf("robustness study not deterministic:\n%+v\n%+v", a.Cells[0], b.Cells[0])
	}
}

func TestRobustnessStudyValidation(t *testing.T) {
	cfg := Quick()
	if _, err := RobustnessStudy(context.Background(), platform.Hera(), "weibull", nil, nil, cfg); err == nil {
		t.Error("empty shape list accepted")
	}
	if _, err := RobustnessStudy(context.Background(), platform.Hera(), "cauchy", []float64{0.7}, nil, cfg); err == nil {
		t.Error("unknown distribution accepted")
	}
	if _, err := RobustnessStudy(context.Background(), platform.Hera(), "weibull", []float64{-1}, nil, cfg); err == nil {
		t.Error("negative shape accepted")
	}
}

func TestRobustnessRenderAndCSV(t *testing.T) {
	cfg := Quick()
	cfg.Seed = 5
	res, err := RobustnessStudy(context.Background(), platform.Hera(), "gamma", []float64{0.5},
		[]costmodel.Scenario{costmodel.Scenario1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Robustness study", "gamma", "scenario 1", "gap", "re-tuned"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("render missing %q:\n%s", frag, buf.String())
		}
	}
	buf.Reset()
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"overhead_sim_naive", "overhead_sim_retuned", "gap_pct"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("CSV missing %q", frag)
		}
	}
}
