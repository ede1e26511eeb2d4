package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/sim"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(NewEngine(Options{}))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func post[T any](t *testing.T, ts *httptest.Server, path string, body any) (T, int) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("unmarshal %s: %v\n%s", path, err, raw)
		}
	}
	return out, resp.StatusCode
}

// The acceptance criterion of the service layer: the HTTP surface returns
// byte-identical results to the equivalent CLI/library invocation for
// fixed seeds. float64 values survive a JSON round-trip exactly
// (encoding/json emits the shortest form that parses back to the same
// bits), so exact equality of the decoded fields is the right check.
func TestServeMatchesCLIInvocation(t *testing.T) {
	_, ts := newTestServer(t)

	// The library-side reference: exactly what cmd/amdahl-sim does.
	pl := platform.Hera()
	m, err := experiments.BuildModel(pl, costmodel.Scenario1, 0.1, 3600)
	if err != nil {
		t.Fatal(err)
	}

	// evaluate ≡ the exact formulas amdahl-opt/amdahl-sim print.
	ev, code := post[EvaluateResponse](t, ts, "/v1/evaluate", EvaluateRequest{
		Model: ModelSpec{Platform: "hera", Scenario: 1},
		T:     6240, P: 219,
	})
	if code != http.StatusOK {
		t.Fatalf("evaluate status %d", code)
	}
	if ev.Overhead != m.Overhead(6240, 219) || ev.PatternTime != m.ExactPatternTime(6240, 219) {
		t.Errorf("evaluate diverges from the library: %+v", ev)
	}

	// optimize ≡ optimize.OptimalPattern with default options.
	want, err := optimize.OptimalPattern(m, optimize.PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt, code := post[OptimizeResponse](t, ts, "/v1/optimize", OptimizeRequest{
		Model: ModelSpec{Platform: "hera", Scenario: 1},
	})
	if code != http.StatusOK {
		t.Fatalf("optimize status %d", code)
	}
	if opt.T != want.T || opt.P != want.P || opt.Overhead != want.Overhead {
		t.Errorf("optimize diverges from the library:\n got %+v\nwant %+v", opt, want)
	}

	// simulate ≡ sim.Simulate at the CLI defaults for a fixed seed.
	cfg := sim.RunConfig{Runs: 50, Patterns: 50, Seed: 7, Workers: 1}
	wantSim, err := sim.Simulate(m, 6240, 219, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotSim, code := post[SimulateResponse](t, ts, "/v1/simulate", SimulateRequest{
		Model: ModelSpec{Platform: "hera", Scenario: 1},
		T:     6240, P: 219, Runs: 50, Patterns: 50, Seed: 7,
	})
	if code != http.StatusOK {
		t.Fatalf("simulate status %d", code)
	}
	if gotSim.Overhead.Mean != wantSim.Overhead.Mean ||
		*gotSim.Overhead.CI95 != wantSim.Overhead.CI95 ||
		gotSim.MeanPatternTime.Mean != wantSim.MeanPatternTime.Mean ||
		gotSim.FailStops != wantSim.FailStops ||
		gotSim.SilentDetections != wantSim.SilentDetections ||
		gotSim.Recoveries != wantSim.Recoveries {
		t.Errorf("simulate diverges from the library:\n got %+v\nwant %+v", gotSim, wantSim)
	}

	// T/P defaulting mirrors amdahl-sim's flags: P=0 → deployed count,
	// T=0 → Theorem 1 period.
	evDef, code := post[EvaluateResponse](t, ts, "/v1/evaluate", EvaluateRequest{
		Model: ModelSpec{Platform: "hera", Scenario: 1},
	})
	if code != http.StatusOK {
		t.Fatalf("evaluate (defaults) status %d", code)
	}
	wantT := m.OptimalPeriodFixedP(pl.Processors)
	if evDef.P != pl.Processors || evDef.T != wantT {
		t.Errorf("T/P defaulting: got (%g, %g), want (%g, %g)", evDef.T, evDef.P, wantT, pl.Processors)
	}
}

// A repeated identical optimize over HTTP must be served from the cache
// and say so.
func TestServeOptimizeCached(t *testing.T) {
	_, ts := newTestServer(t)
	req := OptimizeRequest{Model: ModelSpec{Platform: "atlas", Scenario: 3}}
	first, code := post[OptimizeResponse](t, ts, "/v1/optimize", req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first.Cached {
		t.Error("cold request reported cached")
	}
	second, _ := post[OptimizeResponse](t, ts, "/v1/optimize", req)
	if !second.Cached {
		t.Error("warm request not served from cache")
	}
	if second.T != first.T || second.P != first.P || second.Overhead != first.Overhead {
		t.Error("cached response differs")
	}
}

// The machine-level simulator plus a -dist law over HTTP matches the
// direct library call.
func TestServeSimulateMachineDist(t *testing.T) {
	_, ts := newTestServer(t)
	got, code := post[SimulateResponse](t, ts, "/v1/simulate", SimulateRequest{
		Model: ModelSpec{Platform: "hera", Scenario: 1},
		T:     6240, P: 219, Runs: 5, Patterns: 10, Seed: 3,
		Machine: true, Dist: "weibull", Shape: 0.7,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	m, err := experiments.BuildModel(platform.Hera(), costmodel.Scenario1, 0.1, 3600)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := failuresWeibull(m.LambdaInd, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Simulate(m, 6240, 219, sim.RunConfig{
		Runs: 5, Patterns: 10, Seed: 3, Machine: true, Dist: dist, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Overhead.Mean != want.Overhead.Mean || got.FailStops != want.FailStops {
		t.Errorf("machine+dist simulate diverges:\n got %+v\nwant %+v", got, want)
	}
}

func TestServeErrors(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		path string
		body any
		want int
	}{
		{"/v1/evaluate", EvaluateRequest{Model: ModelSpec{Platform: "nonesuch"}}, http.StatusBadRequest},
		{"/v1/evaluate", EvaluateRequest{Model: ModelSpec{Scenario: 9}}, http.StatusBadRequest},
		{"/v1/evaluate", EvaluateRequest{Model: ModelSpec{}, T: -5, P: 10}, http.StatusBadRequest},
		// P < 1 is rejected as on the simulate endpoints, not priced as P = 1.
		{"/v1/evaluate", EvaluateRequest{Model: ModelSpec{}, P: -5}, http.StatusBadRequest},
		{"/v1/evaluate", EvaluateRequest{Model: ModelSpec{}, P: 0.5}, http.StatusBadRequest},
		{"/v1/simulate", SimulateRequest{Model: ModelSpec{}, Dist: "weibull", Shape: 0.7}, http.StatusBadRequest}, // dist without machine
		{"/v1/simulate", SimulateRequest{Model: ModelSpec{}, Machine: true, P: 219.5}, http.StatusBadRequest},
		{"/v1/simulate", SimulateRequest{Model: ModelSpec{}, Dist: "cauchy", Machine: true}, http.StatusBadRequest},
		// CLI parity: a shape with the exponential law is rejected (the
		// robustness CLI pins the same refusal), never silently dropped.
		{"/v1/simulate", SimulateRequest{Model: ModelSpec{}, Shape: 0.7, Runs: 2, Patterns: 2}, http.StatusBadRequest},
		{"/v1/simulate", SimulateRequest{Model: ModelSpec{}, Dist: "exponential", Shape: 0.7, Machine: true}, http.StatusBadRequest},
		// A period so deep in the failure-dominated regime that the exact
		// overhead is +Inf: not representable in JSON, must be reported as
		// unprocessable rather than a 200 with a truncated body.
		{"/v1/evaluate", EvaluateRequest{Model: ModelSpec{}, T: 1e300, P: 219}, http.StatusUnprocessableEntity},
		// Denial-of-service guards: a patient client must not be able to
		// pin a scheduler slot for hours or OOM the machine simulator.
		{"/v1/simulate", SimulateRequest{Model: ModelSpec{}, Runs: 2000000000, Patterns: 2000000000}, http.StatusUnprocessableEntity},
		{"/v1/simulate", SimulateRequest{Model: ModelSpec{}, Runs: -1}, http.StatusBadRequest},
		{"/v1/simulate", SimulateRequest{Model: ModelSpec{}, Machine: true, P: 1 << 20, Runs: 2, Patterns: 2}, http.StatusUnprocessableEntity},
	} {
		_, code := post[apiError](t, ts, tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s %+v: status %d, want %d", tc.path, tc.body, code, tc.want)
		}
	}

	// Unknown fields are rejected (catches silently misspelled knobs).
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
		bytes.NewReader([]byte(`{"model":{"platform":"hera"},"sceario":3}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field accepted: %d", resp.StatusCode)
	}

	// Method discipline: GET on a POST endpoint is rejected by the mux.
	getResp, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/optimize: %d, want 405", getResp.StatusCode)
	}
}

func TestServeHealthAndStats(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Exercise the engine once, then read the counters back.
	_, code := post[EvaluateResponse](t, ts, "/v1/evaluate", EvaluateRequest{
		Model: ModelSpec{Platform: "hera"}, T: 6240, P: 219,
	})
	if code != http.StatusOK {
		t.Fatalf("evaluate status %d", code)
	}
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st Stats
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Evaluations == 0 || st.MaxConcurrent == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if srv.Engine().Stats().Evaluations != st.Evaluations {
		t.Error("HTTP stats disagree with the engine")
	}
}

// An in-flight campaign must abort when the HTTP client hangs up.
func TestServeSimulateCancellableViaRequestContext(t *testing.T) {
	srv, ts := newTestServer(t)
	body, err := json.Marshal(SimulateRequest{
		Model: ModelSpec{Platform: "hera", Scenario: 1},
		T:     6240, P: 219, Runs: 200000, Patterns: 500, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the campaign start
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("client saw a response despite cancelling")
	}
	// The engine must notice the abandonment promptly (the campaign
	// checks its context between runs).
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Engine().Stats()
		if st.InFlight == 0 && st.Cancelled > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign still in flight after client hang-up: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// failuresWeibull mirrors what the handler builds from (dist, shape).
func failuresWeibull(lambdaInd, shape float64) (failures.Distribution, error) {
	return failures.ParseDistribution("weibull", shape, lambdaInd)
}

// A saturated scheduler surfaces as 503 with a Retry-After header, and
// the shed request never blocks behind the backlog.
func TestServeSaturationReturns503(t *testing.T) {
	srv := NewServer(NewEngine(Options{MaxConcurrent: 1, MaxQueued: 1}))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	e := srv.Engine()

	// Occupy the only executing slot, then park a waiter in the one queue
	// slot so the next request finds the scheduler full.
	if err := e.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer e.release()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiter := make(chan error, 1)
	go func() { waiter <- e.acquire(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}

	buf, _ := json.Marshal(OptimizeRequest{Model: ModelSpec{Platform: "hera", Scenario: 1}})
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 carries no Retry-After header")
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Error == "" {
		t.Error("503 carries no error body")
	}
	if st := e.Stats(); st.Saturated == 0 {
		t.Errorf("saturation not counted: %+v", st)
	}

	// Stats must expose the queue configuration for operators.
	if st := e.Stats(); st.MaxQueued != 1 || st.Queued != 1 {
		t.Errorf("MaxQueued/Queued = %d/%d, want 1/1", st.MaxQueued, st.Queued)
	}
	cancel()
	<-waiter
}
