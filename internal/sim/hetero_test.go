package sim

import (
	"context"
	"math"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/speedup"
	"amdahlyd/internal/xmath"
)

func heteroTestGroups(t *testing.T) []HeteroGroupRun {
	t.Helper()
	cpu := heraModel(t, costmodel.Scenario1, 0.1)
	accel := cpu
	accel.LambdaInd = 20 * cpu.LambdaInd
	accel.Profile = speedup.AmdahlComm{Alpha: 0.1, Speed: 4, Comm: 1e-6}
	if err := accel.Validate(); err != nil {
		t.Fatal(err)
	}
	return []HeteroGroupRun{
		{Model: cpu, T: 5000, P: 256, Fraction: 0.6},
		{Model: accel, T: 3000, P: 128, Fraction: 0.4},
	}
}

// TestSimulateHeteroWorkerIndependence pins the bit-independence
// invariant on the heterogeneous runner: the same seed yields identical
// statistics for 1, 3 and 8 workers.
func TestSimulateHeteroWorkerIndependence(t *testing.T) {
	groups := heteroTestGroups(t)
	var ref HeteroRunResult
	for i, workers := range []int{1, 3, 8} {
		res, err := SimulateHeteroContext(context.Background(), groups, RunConfig{Runs: 60, Patterns: 40, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if res.Overhead != ref.Overhead || res.FailStops != ref.FailStops ||
			res.SilentDetections != ref.SilentDetections || res.Recoveries != ref.Recoveries {
			t.Errorf("workers=%d changed the campaign: %+v vs %+v", workers, res.Overhead, ref.Overhead)
		}
		for g := range res.GroupOverheads {
			if res.GroupOverheads[g] != ref.GroupOverheads[g] {
				t.Errorf("workers=%d changed group %d stats", workers, g)
			}
		}
	}
}

// TestSimulateHeteroGroupStreamIsolation pins the per-group grandchild
// streams: changing one group's pattern must not shift the other group's
// random draws (the event counts attributable to it stay identical in
// expectation-free, stream-exact terms when its own plan is unchanged).
func TestSimulateHeteroGroupStreamIsolation(t *testing.T) {
	groups := heteroTestGroups(t)
	base, err := SimulateHeteroContext(context.Background(), groups, RunConfig{Runs: 40, Patterns: 30, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	perturbed := append([]HeteroGroupRun{}, groups...)
	perturbed[1].T = 4321
	got, err := SimulateHeteroContext(context.Background(), perturbed, RunConfig{Runs: 40, Patterns: 30, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.GroupOverheads[0] != base.GroupOverheads[0] {
		t.Error("perturbing group 1's pattern shifted group 0's stream")
	}
	if got.GroupOverheads[1] == base.GroupOverheads[1] {
		t.Error("perturbing group 1's pattern left its own stats unchanged")
	}
}

// TestSimulateHeteroAgreesWithModel checks the simulator against the
// exact formula per group: each group's simulated overhead must approach
// its model overhead within Monte-Carlo tolerance, and the makespan must
// be max_g x_g·H_g of the same run.
func TestSimulateHeteroAgreesWithModel(t *testing.T) {
	groups := heteroTestGroups(t)
	res, err := SimulateHeteroContext(context.Background(), groups, RunConfig{Runs: 300, Patterns: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for g, gr := range groups {
		want := gr.Model.Overhead(gr.T, gr.P)
		got := res.GroupOverheads[g].Mean
		if d := xmath.RelDiff(got, want); d > 0.05 {
			t.Errorf("group %d: simulated H = %g, model H = %g (rel %g)", g, got, want, d)
		}
	}
	if !(res.Overhead.Mean > 0) || math.IsInf(res.Overhead.Mean, 0) {
		t.Errorf("degenerate makespan summary: %+v", res.Overhead)
	}
	// The makespan mean can never undercut any single group's scaled mean
	// by more than sampling noise (max ≥ each component, run by run).
	for g := range groups {
		if res.Overhead.Mean < groups[g].Fraction*res.GroupOverheads[g].Mean*(1-1e-9) {
			t.Errorf("makespan mean %g below group %d component %g",
				res.Overhead.Mean, g, groups[g].Fraction*res.GroupOverheads[g].Mean)
		}
	}
}

// TestSimulateHeteroSingleGroupMatchesClassic pins the degeneracy on the
// sim layer: a one-group plan with fraction 1 must reproduce the
// classical Simulate campaign's overhead distribution — same per-run
// protocol draws, only the stream derivation differs by the documented
// one extra Split(0) level.
func TestSimulateHeteroSingleGroupMatchesClassic(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	one := []HeteroGroupRun{{Model: m, T: 5000, P: 256, Fraction: 1}}
	het, err := SimulateHeteroContext(context.Background(), one, RunConfig{Runs: 200, Patterns: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	classic, err := Simulate(m, 5000, 256, RunConfig{Runs: 200, Patterns: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Different stream derivation ⇒ statistically identical, not
	// bit-identical: compare within Monte-Carlo tolerance.
	if d := xmath.RelDiff(het.Overhead.Mean, classic.Overhead.Mean); d > 0.05 {
		t.Errorf("single-group hetero sim drifts from classic: %g vs %g (rel %g)",
			het.Overhead.Mean, classic.Overhead.Mean, d)
	}
}

func TestSimulateHeteroRejectsBadPlans(t *testing.T) {
	groups := heteroTestGroups(t)
	if _, err := SimulateHeteroContext(context.Background(), nil, RunConfig{Runs: 10, Patterns: 10}); err == nil {
		t.Error("empty plan accepted")
	}
	bad := append([]HeteroGroupRun{}, groups...)
	bad[0].Fraction = 0
	if _, err := SimulateHeteroContext(context.Background(), bad, RunConfig{Runs: 10, Patterns: 10}); err == nil {
		t.Error("zero fraction accepted")
	}
	bad = append([]HeteroGroupRun{}, groups...)
	bad[0].Fraction = math.NaN()
	if _, err := SimulateHeteroContext(context.Background(), bad, RunConfig{Runs: 10, Patterns: 10}); err == nil {
		t.Error("NaN fraction accepted")
	}
	if _, err := SimulateHeteroContext(context.Background(), groups, RunConfig{Runs: 10, Patterns: 10, Machine: true}); err == nil {
		t.Error("machine mode accepted for heterogeneous plans")
	}
	// Error pressure propagates per group.
	hot := append([]HeteroGroupRun{}, groups...)
	hot[1].Model.LambdaInd = 1e-2
	if err := hot[1].Model.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateHeteroContext(context.Background(), hot, RunConfig{Runs: 10, Patterns: 10}); err == nil {
		t.Error("unsimulable error pressure accepted")
	}
}
