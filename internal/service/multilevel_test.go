package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/platform"
)

const testFrac = 20.0 / 300

// TestMultilevelOptimizeMatchesLibrary is the acceptance criterion: the
// endpoint must return bit-identical numbers to the library path
// (float64 survives a JSON round-trip exactly).
func TestMultilevelOptimizeMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t)
	pl := platform.Hera()
	m, err := experiments.BuildModel(pl, costmodel.Scenario3, 0.1, 3600)
	if err != nil {
		t.Fatal(err)
	}
	want, err := multilevel.OptimalPattern(m, multilevel.InMemoryFraction(m, testFrac), multilevel.PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frac := testFrac
	req := MultilevelOptimizeRequest{
		Model:         ModelSpec{Platform: "hera", Scenario: 3},
		InMemFraction: &frac,
	}
	got, code := post[MultilevelOptimizeResponse](t, ts, "/v1/multilevel/optimize", req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.T != want.T || got.K != want.K || got.P != want.P || got.Overhead != want.PredictedH {
		t.Errorf("endpoint diverges from the library:\n got %+v\nwant %+v", got, want)
	}
	if got.Cached {
		t.Error("first request reported cached")
	}
	// The repeat request must be served from the ml1| cache, bit-equal.
	again, code := post[MultilevelOptimizeResponse](t, ts, "/v1/multilevel/optimize", req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !again.Cached {
		t.Error("repeat request not served from cache")
	}
	if again.T != got.T || again.K != got.K || again.P != got.P || again.Overhead != got.Overhead {
		t.Errorf("cache replay differs: %+v vs %+v", again, got)
	}
}

// TestMultilevelSimulateMatchesLibrary: the campaign endpoint must be
// bit-identical to Simulator.SimulateContext with the same derivation.
func TestMultilevelSimulateMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t)
	pl := platform.Hera()
	m, err := experiments.BuildModel(pl, costmodel.Scenario3, 0.1, 3600)
	if err != nil {
		t.Fatal(err)
	}
	p := pl.Processors
	costs, err := multilevel.SingleLevelCosts(m, p, testFrac)
	if err != nil {
		t.Fatal(err)
	}
	lf, ls := m.Rates(p)
	pat := multilevel.Pattern{T: 5000, K: 3}
	sim, err := multilevel.NewSimulator(costs, pat, lf, ls)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.SimulateContext(context.Background(), multilevel.CampaignConfig{
		Runs: 40, Patterns: 30, Seed: 9, Workers: 1, HOfP: m.Profile.Overhead(p),
	})
	if err != nil {
		t.Fatal(err)
	}
	frac := testFrac
	got, code := post[MultilevelSimulateResponse](t, ts, "/v1/multilevel/simulate", MultilevelSimulateRequest{
		Model:         ModelSpec{Platform: "hera", Scenario: 3},
		InMemFraction: &frac,
		T:             5000, K: 3,
		Runs: 40, Patterns: 30, Seed: 9,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.Overhead.Mean != want.Overhead.Mean ||
		*got.Overhead.CI95 != want.Overhead.CI95 ||
		got.FailStops != want.FailStops ||
		got.SilentDetections != want.SilentDetections ||
		got.DiskRecoveries != want.DiskRecoveries ||
		got.MemRecoveries != want.MemRecoveries {
		t.Errorf("endpoint diverges from the library:\n got %+v\nwant %+v", got, want)
	}
	if got.P != p || got.K != 3 || got.T != 5000 {
		t.Errorf("pattern echo wrong: %+v", got)
	}
	// Repeat: bit-identical cache replay.
	again, code := post[MultilevelSimulateResponse](t, ts, "/v1/multilevel/simulate", MultilevelSimulateRequest{
		Model:         ModelSpec{Platform: "hera", Scenario: 3},
		InMemFraction: &frac,
		T:             5000, K: 3,
		Runs: 40, Patterns: 30, Seed: 9,
	})
	if code != http.StatusOK || !again.Cached {
		t.Fatalf("repeat campaign status %d cached=%t", code, again.Cached)
	}
	if again.Overhead.Mean != got.Overhead.Mean {
		t.Error("cache replay differs")
	}
}

// TestMultilevelSimulateDefaultsPattern: zero-valued T/K/P must default
// from the first-order optimum at the deployed processor count.
func TestMultilevelSimulateDefaultsPattern(t *testing.T) {
	_, ts := newTestServer(t)
	pl := platform.Hera()
	m, err := experiments.BuildModel(pl, costmodel.Scenario3, 0.1, 3600)
	if err != nil {
		t.Fatal(err)
	}
	costs, err := multilevel.SingleLevelCosts(m, pl.Processors, defaultInMemFraction)
	if err != nil {
		t.Fatal(err)
	}
	lf, ls := m.Rates(pl.Processors)
	plan, err := multilevel.FirstOrder(costs, lf, ls, m.Profile.Overhead(pl.Processors))
	if err != nil {
		t.Fatal(err)
	}
	got, code := post[MultilevelSimulateResponse](t, ts, "/v1/multilevel/simulate", MultilevelSimulateRequest{
		Model: ModelSpec{Platform: "hera", Scenario: 3},
		Runs:  10, Patterns: 10, Seed: 1,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.T != plan.T || got.K != plan.K || got.P != pl.Processors {
		t.Errorf("defaults diverge from FirstOrder at deployed P: got (%g, %d, %g), want (%g, %d, %g)",
			got.T, got.K, got.P, plan.T, plan.K, pl.Processors)
	}
}

// TestMultilevelSimulateBudgetCap: the per-request pattern budget
// applies to two-level campaigns exactly as to single-level ones.
func TestMultilevelSimulateBudgetCap(t *testing.T) {
	_, ts := newTestServer(t)
	_, code := post[MultilevelSimulateResponse](t, ts, "/v1/multilevel/simulate", MultilevelSimulateRequest{
		Model: ModelSpec{Platform: "hera", Scenario: 3},
		Runs:  1 << 20, Patterns: 1 << 20,
	})
	if code != http.StatusUnprocessableEntity {
		t.Errorf("oversized campaign status %d, want 422", code)
	}
}

// TestMultilevelSimulateRejectsOverflowingRates: a λ whose platform
// rates overflow to +Inf is a request error that names the rates, not a
// NaN pattern.
func TestMultilevelSimulateRejectsOverflowingRates(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/multilevel/simulate", "application/json",
		strings.NewReader(`{"model":{"lambda":1e308},"runs":2,"patterns":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "positive and finite") {
		t.Errorf("status %d: %s; want 400 rejecting the infinite rates", resp.StatusCode, body)
	}
}

// TestMultilevelSimulateRejectsUnsimulablePatterns: a pattern the
// two-level simulator could never finish answers 4xx at once and frees
// its scheduler slot, instead of pinning a replica's slot forever; a
// processor count below one is a request error.
func TestMultilevelSimulateRejectsUnsimulablePatterns(t *testing.T) {
	srv, ts := newTestServer(t)
	for _, body := range []string{
		`{"model":{"platform":"hera"},"t":1e300,"k":2,"runs":2,"patterns":2}`,
		`{"model":{"platform":"hera"},"k":2000000000,"runs":2,"patterns":2}`,
		`{"model":{"platform":"hera"},"p":1e300,"runs":2,"patterns":2}`,
		`{"model":{"platform":"hera"},"t":1e7,"k":1,"p":1e6,"runs":2,"patterns":2}`,
		`{"model":{"platform":"hera"},"p":-1,"runs":2,"patterns":2}`,
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/multilevel/simulate", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		cancel()
		if err != nil {
			t.Errorf("%s: %v", body, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s: status %d, want 4xx", body, resp.StatusCode)
		}
		if n := srv.Engine().Stats().InFlight; n != 0 {
			t.Errorf("%s: in_flight = %d after the answer, want 0", body, n)
		}
	}
}

// TestModelSpecRejectsNegativeLambda is the regression for the silent
// "overrides when positive" fallback: an explicit negative override must
// be a 400 with a self-explanatory body, not the platform rate.
func TestModelSpecRejectsNegativeLambda(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/v1/evaluate", "/v1/optimize", "/v1/multilevel/optimize"} {
		buf, _ := json.Marshal(map[string]any{
			"model": map[string]any{"platform": "hera", "scenario": 1, "lambda": -1e-8},
		})
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: negative lambda status %d, want 400", path, resp.StatusCode)
		}
		var apiErr apiError
		if err := json.Unmarshal(body.Bytes(), &apiErr); err != nil {
			t.Fatalf("%s: error body not JSON: %v\n%s", path, err, body)
		}
		if !strings.Contains(apiErr.Error, "lambda override -1e-08") ||
			!strings.Contains(apiErr.Error, "must be positive") {
			t.Errorf("%s: uninformative error body %q", path, apiErr.Error)
		}
	}
}

// postNDJSON posts a sweep request and decodes the NDJSON rows.
func postNDJSON(t *testing.T, url string, body any) ([]SweepRow, int) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var rows []SweepRow
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row SweepRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON row: %v\n%s", err, sc.Text())
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows, resp.StatusCode
}

// TestMultilevelSweepAxis: the multilevel axis on /v1/sweep must solve
// the chain, carry K on every row, and (in cold mode) be bit-identical
// to per-cell /v1/multilevel/optimize — sharing its cache entries.
func TestMultilevelSweepAxis(t *testing.T) {
	_, ts := newTestServer(t)
	frac := testFrac
	req := SweepRequest{
		Model:      ModelSpec{Platform: "hera", Scenario: 3},
		Axis:       "lambda",
		Values:     []float64{1e-9, 2e-9, 4e-9, 8e-9},
		Cold:       true,
		Multilevel: &MultilevelSweepSpec{InMemFraction: &frac},
	}
	rows, code := postNDJSON(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(rows) != len(req.Values) {
		t.Fatalf("%d rows for %d values", len(rows), len(req.Values))
	}
	for i, row := range rows {
		if row.K < 1 {
			t.Errorf("row %d: missing segment count: %+v", i, row)
		}
		if row.Method != "multilevel" {
			t.Errorf("row %d: method %q", i, row.Method)
		}
		// Cold cells are bit-identical to the per-cell endpoint…
		opt, code := post[MultilevelOptimizeResponse](t, ts, "/v1/multilevel/optimize", MultilevelOptimizeRequest{
			Model:         ModelSpec{Platform: "hera", Scenario: 3, Lambda: req.Values[i]},
			InMemFraction: &frac,
		})
		if code != http.StatusOK {
			t.Fatalf("optimize status %d", code)
		}
		if opt.T != row.T || opt.K != row.K || opt.P != row.P || opt.Overhead != row.Overhead {
			t.Errorf("row %d: cold sweep differs from /v1/multilevel/optimize:\n row %+v\n opt %+v", i, row, opt)
		}
		// …and share cache entries bidirectionally.
		if !opt.Cached {
			t.Errorf("row %d: cold sweep cell did not prime the optimize cache", i)
		}
	}

	// The warm chain agrees with cold within the refinement tolerance and
	// reports warm cells.
	warmReq := req
	warmReq.Cold = false
	warmRows, code := postNDJSON(t, ts.URL, warmReq)
	if code != http.StatusOK {
		t.Fatalf("warm status %d", code)
	}
	warmCells := 0
	for i, wr := range warmRows {
		if wr.Warm {
			warmCells++
		}
		if relDiffF(wr.Overhead, rows[i].Overhead) > 1e-8 {
			t.Errorf("cell %d: warm overhead %g vs cold %g", i, wr.Overhead, rows[i].Overhead)
		}
	}
	if warmCells == 0 {
		t.Error("no warm cells on a smooth λ axis")
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
		if row.T != warmRows[i].T || row.K != warmRows[i].K || row.P != warmRows[i].P {
			t.Errorf("replay cell %d differs", i)
		}
	}
}

// TestMultilevelSweepRejectsPeriodBounds: period search bounds have no
// meaning for the closed-form segment length and must error loudly.
func TestMultilevelSweepRejectsPeriodBounds(t *testing.T) {
	_, ts := newTestServer(t)
	frac := 0.1
	_, code := postNDJSON(t, ts.URL, SweepRequest{
		Model:      ModelSpec{Platform: "hera", Scenario: 3},
		Axis:       "lambda",
		Values:     []float64{1e-9},
		Options:    OptimizeOptions{TMin: 10, TMax: 100},
		Multilevel: &MultilevelSweepSpec{InMemFraction: &frac},
	})
	if code != http.StatusBadRequest {
		t.Errorf("t bounds on a multilevel sweep: status %d, want 400", code)
	}
}

func relDiffF(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return 0
	}
	return d / m
}
