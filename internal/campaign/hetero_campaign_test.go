package campaign

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"amdahlyd/internal/experiments"
	"amdahlyd/internal/platform"
)

// heteroTestManifest is a small hetero grid: one chain over two comm
// values on the Hera-derived two-group study topology.
func heteroTestManifest() Manifest {
	tp := experiments.HeteroStudyTopology(platform.Hera(), 0, 0.25)
	return Manifest{
		Name:      "hg",
		Seed:      17,
		Runs:      3,
		Patterns:  5,
		Topology:  &tp,
		Scenarios: []int{1},
		Protocol:  ProtocolHetero,
		Axis:      AxisComm,
		Values:    []float64{0, 1e-5},
	}
}

func TestHeteroExpand(t *testing.T) {
	p, err := Expand(heteroTestManifest())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cells) != 2 || len(p.Chains) != 1 {
		t.Fatalf("got %d cells in %d chains, want 2 in 1", len(p.Cells), len(p.Chains))
	}
	for i, c := range p.Cells {
		if len(c.Hetero.Groups) != 2 {
			t.Fatalf("cell %d: %d compiled groups, want 2", i, len(c.Hetero.Groups))
		}
		if c.Hetero.Comm != p.Manifest.Values[i] {
			t.Errorf("cell %d: comm %g, want axis value %g", i, c.Hetero.Comm, p.Manifest.Values[i])
		}
		if c.Comm != p.Manifest.Values[i] {
			t.Errorf("cell %d: Cell.Comm %g, want %g", i, c.Comm, p.Manifest.Values[i])
		}
		if c.Protocol != ProtocolHetero {
			t.Errorf("cell %d: protocol %q", i, c.Protocol)
		}
		if c.Platform != "Hera+accel" {
			t.Errorf("cell %d: platform %q not derived from topology name", i, c.Platform)
		}
		if !math.IsNaN(c.Lambda) {
			t.Errorf("cell %d: Lambda %g, want NaN for a topology cell", i, c.Lambda)
		}
		if c.Model.LambdaInd != 0 {
			t.Errorf("cell %d: homogeneous Model populated on a hetero cell", i)
		}
	}
	if p.Cells[0].ID == p.Cells[1].ID {
		t.Error("comm values collapsed to one cell ID")
	}
}

// TestHeteroCampaignRunAndResume runs the hetero grid end to end, then
// proves the resume contract on it: kill one artifact, resume, and the
// reports are byte-identical to an uninterrupted run.
func TestHeteroCampaignRunAndResume(t *testing.T) {
	man := heteroTestManifest()
	clean, crashed := t.TempDir(), t.TempDir()
	mustRun(t, man, testOptions(clean))

	// The artifacts carry the joint per-group plan.
	p, err := Expand(man)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Cells {
		a, err := loadArtifact(clean, c, man.Runs, man.Patterns)
		if err != nil {
			t.Fatalf("artifact %s: %v", c.ID, err)
		}
		if a.G < 1 || a.G != len(a.Groups) {
			t.Fatalf("cell %s: G=%d with %d group plans", c.ID, a.G, len(a.Groups))
		}
		if a.T != 0 || a.P != 0 {
			t.Errorf("cell %s: hetero artifact carries scalar T/P (%g, %g)", c.ID, a.T, a.P)
		}
		var fracSum float64
		for _, g := range a.Groups {
			if !(g.T > 0) || !(g.P >= 1) || g.P != math.Trunc(g.P) {
				t.Errorf("cell %s group %d: bad plan T=%g P=%g (want T>0, integral P>=1)",
					c.ID, g.Group, g.T, g.P)
			}
			fracSum += g.Fraction
		}
		if math.Abs(fracSum-1) > 1e-9 {
			t.Errorf("cell %s: work fractions sum to %g, want 1", c.ID, fracSum)
		}
		if a.SimH == nil && !a.Unsimulable {
			t.Errorf("cell %s: no simulated overhead and not marked unsimulable", c.ID)
		}
	}

	mustRun(t, man, testOptions(crashed))
	cells, err := filepath.Glob(filepath.Join(crashed, "cells", "*.json"))
	if err != nil || len(cells) == 0 {
		t.Fatalf("artifacts: %v", err)
	}
	if err := os.Remove(cells[0]); err != nil {
		t.Fatal(err)
	}
	opts := testOptions(crashed)
	opts.Resume = true
	sum := mustRun(t, man, opts)
	if sum.Executed != 1 || sum.Skipped != 1 {
		t.Errorf("resume executed %d / skipped %d cells, want 1 / 1", sum.Executed, sum.Skipped)
	}
	assertSameReports(t, clean, crashed)
}

func TestHeteroManifestValidation(t *testing.T) {
	base := heteroTestManifest()

	noTopo := base
	noTopo.Topology = nil
	if err := noTopo.Validate(); err == nil {
		t.Error("hetero protocol without a topology accepted")
	}

	commNoHetero := testManifest()
	commNoHetero.Axis = AxisComm
	commNoHetero.Values = []float64{0, 1e-5}
	if err := commNoHetero.Validate(); err == nil {
		t.Error("comm axis without the hetero protocol accepted")
	}

	topoNoHetero := testManifest()
	topoNoHetero.Topology = base.Topology
	if err := topoNoHetero.Validate(); err == nil {
		t.Error("topology without the hetero protocol accepted")
	}

	fixedAndAxis := base
	tp := *base.Topology
	tp.Comm = 1e-6
	fixedAndAxis.Topology = &tp
	if err := fixedAndAxis.Validate(); err == nil {
		t.Error("comm fixed in the topology and swept on the axis accepted")
	}

	weird := base
	weird.Dist, weird.Shape = "weibull", 0.7
	if err := weird.Validate(); err == nil {
		t.Error("non-exponential distribution on the hetero protocol accepted")
	}
}
