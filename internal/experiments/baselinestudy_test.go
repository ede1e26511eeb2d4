package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
)

func TestBaselineStudy(t *testing.T) {
	res, err := BaselineStudy(context.Background(), platform.All(), costmodel.Scenario1, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("expected 4 platforms, got %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		// The VC optimum must beat (or tie) every baseline under the
		// full model, up to Monte-Carlo noise.
		noise := 4 * (c.Optimal.SimCI + c.Young.SimCI)
		if c.Optimal.SimulatedH > c.Young.SimulatedH+noise {
			t.Errorf("%s: optimal %g worse than Young %g", c.Platform,
				c.Optimal.SimulatedH, c.Young.SimulatedH)
		}
		if c.Optimal.SimulatedH > c.Relaxation.SimulatedH+noise {
			t.Errorf("%s: optimal %g worse than relaxation %g", c.Platform,
				c.Optimal.SimulatedH, c.Relaxation.SimulatedH)
		}
		// The fail-stop-only analysis underestimates its own plan's cost
		// (silent errors are invisible to it).
		if c.YoungAssumedH >= c.Young.SimulatedH {
			t.Errorf("%s: Young believes %g >= actual %g — silent errors not priced",
				c.Platform, c.YoungAssumedH, c.Young.SimulatedH)
		}
		// Daly refines Young; under the full model it should be at least
		// comparable (both ignore silent errors equally).
		if c.Daly.SimulatedH > c.Young.SimulatedH*1.05 {
			t.Errorf("%s: Daly %g much worse than Young %g", c.Platform,
				c.Daly.SimulatedH, c.Young.SimulatedH)
		}
	}

	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Baseline comparison", "Hera", "CoastalSSD", "Young excess"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("render missing %q", frag)
		}
	}
	var csvBuf bytes.Buffer
	if err := res.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvBuf.String(), "overhead_young_assumed") {
		t.Error("CSV missing series")
	}
}

func TestBaselineStudySilentHeavyPlatformSuffersMore(t *testing.T) {
	// Atlas has the highest silent fraction (s = 0.9375): ignoring
	// silent errors must cost it more (relative to its optimum) than
	// Hera (s = 0.7812).
	res, err := BaselineStudy(context.Background(), []platform.Platform{platform.Hera(), platform.Atlas()},
		costmodel.Scenario1, Quick())
	if err != nil {
		t.Fatal(err)
	}
	excess := func(c BaselineCell) float64 {
		return (c.Young.SimulatedH - c.Optimal.SimulatedH) / c.Optimal.SimulatedH
	}
	hera, atlas := res.Cells[0], res.Cells[1]
	if excess(atlas) <= excess(hera) {
		t.Errorf("Atlas (s=0.94) Young excess %.4f should exceed Hera (s=0.78) %.4f",
			excess(atlas), excess(hera))
	}
}

// TestBaselineStudyErrorNamesPlatform: with several platforms, a failed
// solve names the platform of the failing cell, like every other driver.
func TestBaselineStudyErrorNamesPlatform(t *testing.T) {
	doomed := platform.Hera()
	doomed.Name, doomed.LambdaInd = "Doomed", 1e300
	_, err := BaselineStudy(context.Background(), []platform.Platform{platform.Hera(), doomed},
		costmodel.Scenario1, Config{Runs: 2, Patterns: 2, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "optimizing baselines/Doomed/scenario 1: ") {
		t.Errorf("err = %v; want the failing cell baselines/Doomed/scenario 1 named", err)
	}
}
