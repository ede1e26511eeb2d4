package service

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/sim"
)

// testTopologySpec is the request-side fixture: Hera's CPU tile plus a
// small fast low-reliability accelerator group, coupled by comm.
func testTopologySpec(comm float64) TopologySpec {
	pl := platform.Hera()
	cpu := platform.SingleGroup(pl).Groups[0]
	accel := platform.Group{
		Name:             "accel",
		LambdaInd:        50 * pl.LambdaInd,
		FailStopFraction: pl.FailStopFraction,
		SilentFraction:   pl.SilentFraction,
		Size:             128,
		Speed:            8,
		CheckpointCost:   pl.CheckpointCost / 5,
		VerificationCost: pl.VerificationCost / 4,
	}
	return TopologySpec{
		Name:     "hera+accel",
		Comm:     comm,
		Groups:   []platform.Group{cpu, accel},
		Scenario: 1,
	}
}

// TestHeteroOptimizeMatchesLibrary is the acceptance criterion: the
// endpoint must return bit-identical numbers to hetero.OptimalPattern
// (float64 survives a JSON round-trip exactly).
func TestHeteroOptimizeMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t)
	spec := testTopologySpec(1e-6)
	tp := platform.Topology{Name: spec.Name, Comm: spec.Comm, Groups: spec.Groups}
	hm, err := hetero.CompileTopology(tp, costmodel.Scenario1, 0.1, 3600)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hetero.OptimalPattern(hm, hetero.PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	req := HeteroOptimizeRequest{Topology: spec}
	got, code := post[HeteroOptimizeResponse](t, ts, "/v1/hetero/optimize", req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.Overhead != want.Overhead || got.Active != want.Active || len(got.Groups) != len(want.Groups) {
		t.Fatalf("endpoint diverges from the library:\n got %+v\nwant %+v", got, want)
	}
	for i, gp := range want.Groups {
		rg := got.Groups[i]
		if rg.Group != gp.Group || rg.T != gp.T || rg.P != gp.P ||
			rg.Fraction != gp.Fraction || rg.Overhead != gp.GroupOverhead {
			t.Errorf("group %d diverges:\n got %+v\nwant %+v", i, rg, gp)
		}
	}
	if got.Cached {
		t.Error("first request reported cached")
	}
	// The repeat request must be served from the cache, bit-equal.
	again, code := post[HeteroOptimizeResponse](t, ts, "/v1/hetero/optimize", req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !again.Cached {
		t.Error("repeat request not served from cache")
	}
	if again.Overhead != got.Overhead || again.Active != got.Active {
		t.Errorf("cache replay differs: %+v vs %+v", again, got)
	}
}

// TestHeteroSimulateMatchesLibrary: the campaign endpoint must be
// bit-identical to sim.SimulateHeteroContext on the same plan.
func TestHeteroSimulateMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t)
	spec := testTopologySpec(1e-6)
	tp := platform.Topology{Name: spec.Name, Comm: spec.Comm, Groups: spec.Groups}
	hm, err := hetero.CompileTopology(tp, costmodel.Scenario1, 0.1, 3600)
	if err != nil {
		t.Fatal(err)
	}
	plan := []HeteroPlanGroup{
		{Group: 0, T: 5000, P: 512, Fraction: 0.7},
		{Group: 1, T: 2000, P: 128, Fraction: 0.3},
	}
	groups := make([]sim.HeteroGroupRun, len(plan))
	for i, pg := range plan {
		m, err := hm.ActiveModel(pg.Group, len(plan))
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = sim.HeteroGroupRun{Model: m, T: pg.T, P: pg.P, Fraction: pg.Fraction}
	}
	want, err := sim.SimulateHeteroContext(context.Background(), groups, sim.RunConfig{Runs: 40, Patterns: 30, Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := HeteroSimulateRequest{
		Topology: spec, Plan: plan,
		Runs: 40, Patterns: 30, Seed: 9,
	}
	got, code := post[HeteroSimulateResponse](t, ts, "/v1/hetero/simulate", req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.Overhead.Mean != want.Overhead.Mean ||
		*got.Overhead.CI95 != want.Overhead.CI95 ||
		got.FailStops != want.FailStops ||
		got.SilentDetections != want.SilentDetections ||
		got.Recoveries != want.Recoveries {
		t.Errorf("endpoint diverges from the library:\n got %+v\nwant %+v", got, want)
	}
	for g := range groups {
		if got.Groups[g].Overhead.Mean != want.GroupOverheads[g].Mean {
			t.Errorf("group %d summary diverges", g)
		}
	}
	// Repeat: bit-identical cache replay.
	again, code := post[HeteroSimulateResponse](t, ts, "/v1/hetero/simulate", req)
	if code != http.StatusOK || !again.Cached {
		t.Fatalf("repeat campaign status %d cached=%t", code, again.Cached)
	}
	if again.Overhead.Mean != got.Overhead.Mean {
		t.Error("cache replay differs")
	}
}

// TestHeteroSimulateDefaultsPlan: an omitted plan must simulate the
// joint optimum — the same campaign an explicit optimal plan would run.
func TestHeteroSimulateDefaultsPlan(t *testing.T) {
	_, ts := newTestServer(t)
	spec := testTopologySpec(1e-6)
	opt, code := post[HeteroOptimizeResponse](t, ts, "/v1/hetero/optimize", HeteroOptimizeRequest{Topology: spec})
	if code != http.StatusOK {
		t.Fatalf("optimize status %d", code)
	}
	plan := make([]HeteroPlanGroup, len(opt.Groups))
	for i, g := range opt.Groups {
		plan[i] = HeteroPlanGroup{Group: g.Group, T: g.T, P: g.P, Fraction: g.Fraction}
	}
	explicit, code := post[HeteroSimulateResponse](t, ts, "/v1/hetero/simulate", HeteroSimulateRequest{
		Topology: spec, Plan: plan, Runs: 20, Patterns: 20, Seed: 4,
	})
	if code != http.StatusOK {
		t.Fatalf("explicit-plan status %d", code)
	}
	defaulted, code := post[HeteroSimulateResponse](t, ts, "/v1/hetero/simulate", HeteroSimulateRequest{
		Topology: spec, Runs: 20, Patterns: 20, Seed: 4,
	})
	if code != http.StatusOK {
		t.Fatalf("defaulted-plan status %d", code)
	}
	if defaulted.Overhead.Mean != explicit.Overhead.Mean || !defaulted.Cached {
		t.Errorf("defaulted plan diverges from the explicit optimum (cached=%t):\n got %+v\nwant %+v",
			defaulted.Cached, defaulted.Overhead, explicit.Overhead)
	}
}

// TestHeteroSimulateRejectsBadPlans: request validation fails before
// anything is keyed or scheduled.
func TestHeteroSimulateRejectsBadPlans(t *testing.T) {
	_, ts := newTestServer(t)
	spec := testTopologySpec(0)
	bad := []HeteroSimulateRequest{
		{Topology: spec, Plan: []HeteroPlanGroup{{Group: 5, T: 100, P: 2, Fraction: 1}}},
		{Topology: spec, Plan: []HeteroPlanGroup{
			{Group: 0, T: 100, P: 2, Fraction: 0.5},
			{Group: 0, T: 100, P: 2, Fraction: 0.5},
		}},
		{Topology: spec, Plan: []HeteroPlanGroup{{Group: 0, T: -1, P: 2, Fraction: 1}}},
		{Topology: spec, Plan: []HeteroPlanGroup{{Group: 0, T: 100, P: 2, Fraction: 1.5}}},
		// The accel group has 128 processors.
		{Topology: spec, Plan: []HeteroPlanGroup{{Group: 1, T: 100, P: 200, Fraction: 1}}},
	}
	for i, req := range bad {
		req.Runs, req.Patterns = 5, 5
		if _, code := post[HeteroSimulateResponse](t, ts, "/v1/hetero/simulate", req); code != http.StatusBadRequest {
			t.Errorf("bad plan %d: status %d, want 400", i, code)
		}
	}
	tp := platform.Topology{Name: spec.Name, Comm: spec.Comm, Groups: spec.Groups}
	hm, err := hetero.CompileTopology(tp, costmodel.Scenario1, 0.1, 3600)
	if err != nil {
		t.Fatal(err)
	}
	err = validatePlan(hm, []hetero.GroupPlan{{Group: 1, T: 100, P: 200, Fraction: 1}})
	if err == nil || !strings.Contains(err.Error(), "entry 0: allocation P = 200 exceeds group 1's 128 processors") {
		t.Errorf("oversize plan error %v does not name the entry, its P and the group size", err)
	}
	// The per-request budget scales with the group count.
	big := HeteroSimulateRequest{Topology: spec, Runs: 1 << 18, Patterns: 1 << 12}
	if _, code := post[HeteroSimulateResponse](t, ts, "/v1/hetero/simulate", big); code != http.StatusUnprocessableEntity {
		t.Errorf("oversized campaign not capped")
	}
}

// TestHeteroSweepAxis: the hetero switch on /v1/sweep must solve the
// comm-axis chain, carry the active count and per-group plans on every
// row, and (in cold mode) be bit-identical to per-cell
// /v1/hetero/optimize — sharing its cache entries.
func TestHeteroSweepAxis(t *testing.T) {
	_, ts := newTestServer(t)
	spec := testTopologySpec(0)
	req := SweepRequest{
		Axis:   "comm",
		Values: []float64{0, 1e-6, 4e-6, 1e-5},
		Cold:   true,
		Hetero: &HeteroSweepSpec{Topology: spec},
	}
	rows, code := postNDJSON(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(rows) != len(req.Values) {
		t.Fatalf("%d rows for %d values", len(rows), len(req.Values))
	}
	for i, row := range rows {
		if row.Method != "hetero" {
			t.Errorf("row %d: method %q", i, row.Method)
		}
		if row.G < 1 || len(row.Groups) != row.G {
			t.Errorf("row %d: malformed plan: G=%d groups=%d", i, row.G, len(row.Groups))
		}
		// Cold cells are bit-identical to the per-cell endpoint…
		cellSpec := spec
		cellSpec.Comm = req.Values[i]
		opt, code := post[HeteroOptimizeResponse](t, ts, "/v1/hetero/optimize", HeteroOptimizeRequest{Topology: cellSpec})
		if code != http.StatusOK {
			t.Fatalf("optimize status %d", code)
		}
		if opt.Overhead != row.Overhead || opt.Active != row.G {
			t.Errorf("row %d: cold sweep differs from /v1/hetero/optimize:\n row %+v\n opt %+v", i, row, opt)
		}
		// …and share cache entries bidirectionally.
		if !opt.Cached {
			t.Errorf("row %d: cold sweep cell did not prime the optimize cache", i)
		}
	}

	// The warm chain agrees with cold within the refinement tolerance. A
	// row is warm only when every per-group solve of its cell was: the
	// first cell runs full-box scans only, a later one warm-starts, and
	// no Cold row is warm.
	warmReq := req
	warmReq.Cold = false
	warmRows, code := postNDJSON(t, ts.URL, warmReq)
	if code != http.StatusOK {
		t.Fatalf("warm status %d", code)
	}
	laterWarm := false
	for i, wr := range warmRows {
		if i == 0 && wr.Warm {
			t.Error("first warm-mode cell flagged warm after full-box scans only")
		}
		laterWarm = laterWarm || (i > 0 && wr.Warm)
		if rows[i].Warm {
			t.Errorf("Cold cell %d flagged warm", i)
		}
		if relDiffF(wr.Overhead, rows[i].Overhead) > 1e-8 {
			t.Errorf("cell %d: warm overhead %g vs cold %g", i, wr.Overhead, rows[i].Overhead)
		}
	}
	if !laterWarm {
		t.Error("no warm-mode cell after the first flagged warm")
	}

	// A second identical warm sweep replays every cell from cache.
	again, code := postNDJSON(t, ts.URL, warmReq)
	if code != http.StatusOK {
		t.Fatalf("replay status %d", code)
	}
	for i, row := range again {
		if !row.Cached {
			t.Errorf("replay cell %d not cached", i)
		}
		if row.Overhead != warmRows[i].Overhead || row.G != warmRows[i].G {
			t.Errorf("replay cell %d differs", i)
		}
	}
}

// TestHeteroSweepRejectsForeignAxes: only the comm axis recompiles a
// topology; model axes must error loudly instead of sweeping nothing.
func TestHeteroSweepRejectsForeignAxes(t *testing.T) {
	_, ts := newTestServer(t)
	_, code := postNDJSON(t, ts.URL, SweepRequest{
		Axis:   "lambda",
		Values: []float64{1e-9},
		Hetero: &HeteroSweepSpec{Topology: testTopologySpec(0)},
	})
	if code != http.StatusBadRequest {
		t.Errorf("lambda axis on a hetero sweep: status %d, want 400", code)
	}
	// Hetero and multilevel are mutually exclusive protocols.
	frac := 0.1
	_, code = postNDJSON(t, ts.URL, SweepRequest{
		Axis:       "comm",
		Values:     []float64{0},
		Hetero:     &HeteroSweepSpec{Topology: testTopologySpec(0)},
		Multilevel: &MultilevelSweepSpec{InMemFraction: &frac},
	})
	if code != http.StatusBadRequest {
		t.Errorf("hetero+multilevel sweep: status %d, want 400", code)
	}
}
