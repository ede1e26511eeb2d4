package service

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/sim"
)

// unaryPaths lists the unary endpoints; a fuzz input's selector picks
// one by index.
var unaryPaths = []string{
	"/v1/evaluate", "/v1/optimize", "/v1/simulate",
	"/v1/multilevel/optimize", "/v1/multilevel/simulate",
	"/v1/hetero/optimize", "/v1/hetero/simulate",
}

// FuzzUnaryRequests serves generated bodies through the unary pipeline
// (decode → Build → engine → encode) of a fresh NewServer: no input may
// panic or answer a 5xx other than a 503 carrying Retry-After, and a 200
// body must be valid JSON.
func FuzzUnaryRequests(f *testing.F) {
	table := unaryGoldenTable(f)
	for i, path := range unaryPaths {
		for _, r := range table[path] {
			f.Add(uint8(i), []byte(r.body))
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, body []byte) {
		path := unaryPaths[int(sel)%len(unaryPaths)]
		if tooMuchFuzzWork(path, body) {
			t.Skip("asks for more work than a fuzz input may spend")
		}
		rec := httptest.NewRecorder()
		NewServer(NewEngine(Options{MaxConcurrent: 1})).ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch code := rec.Code; {
		case code == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") != "":
		case code >= 500:
			t.Fatalf("%s %q: status %d: %s", path, body, code, rec.Body)
		case code == http.StatusOK && !json.Valid(rec.Body.Bytes()):
			t.Fatalf("%s %q: 200 with a body that is not JSON: %q", path, body, rec.Body)
		}
	})
}

// tooMuchFuzzWork bounds what one fuzz input may cost, so a fuzzing run
// keeps making progress: a topology may hold at most 8 groups, and a
// simulate request may ask for at most 1e4 patterns, counting each
// topology group and two-level segment as a pattern of its own and,
// for the machine-level simulator, ten processor clocks per run as one
// (a platform default P as 2048, the largest). Bodies the server
// refuses before any work — they do not decode, or the campaign is past
// the per-request cap — are kept.
func tooMuchFuzzWork(path string, body []byte) bool {
	var runs, patterns, factor, clocks int
	switch path {
	case "/v1/simulate":
		var q SimulateRequest
		if !decodesAs(body, &q) {
			return false
		}
		runs, patterns, factor = q.Runs, q.Patterns, 1
		if q.Machine {
			clocks = int(min(cmp.Or(q.P, 2048), 1e9))
		}
	case "/v1/multilevel/simulate":
		var q MultilevelSimulateRequest
		if !decodesAs(body, &q) {
			return false
		}
		runs, patterns, factor = q.Runs, q.Patterns, max(q.K, 1)
	case "/v1/hetero/optimize", "/v1/hetero/simulate":
		var q HeteroSimulateRequest // the optimize request's fields and more
		if !decodesAs(body, &q) {
			return false
		}
		if groups := len(q.Topology.Groups); groups > 8 || path == "/v1/hetero/optimize" {
			return groups > 8
		}
		runs, patterns, factor = q.Runs, q.Patterns, len(q.Topology.Groups)
	default:
		return false
	}
	eff := sim.RunConfig{Runs: runs, Patterns: patterns}.WithDefaults()
	n := float64(eff.Runs) * float64(eff.Patterns)
	if runs < 0 || patterns < 0 || n > maxRequestPatternBudget {
		return false
	}
	return max(n*float64(factor), float64(eff.Runs)*float64(clocks)/10) > 1e4
}

// sweepSeeds are the bodies sweep_test.go sends to /v1/sweep: the
// single-level, two-level and heterogeneous axes, warm and cold, and the
// refused bodies of TestSweepHTTPValidation.
func sweepSeeds(f *testing.F) [][]byte {
	frac := testFrac
	var reqs []any
	for _, cold := range []bool{false, true} {
		reqs = append(reqs,
			SweepRequest{Model: ModelSpec{Platform: "hera", Scenario: 3}, Axis: "lambda", Values: sweepLambdas, Cold: cold},
			SweepRequest{Model: ModelSpec{Platform: "hera", Scenario: 3}, Axis: "lambda", Values: sweepLambdas,
				Cold: cold, Multilevel: &MultilevelSweepSpec{InMemFraction: &frac}},
			SweepRequest{Axis: "comm", Values: []float64{0, 1e-6, 4e-6, 1e-5}, Cold: cold,
				Hetero: &HeteroSweepSpec{Topology: testTopologySpec(0)}})
	}
	reqs = append(reqs,
		map[string]any{"model": map[string]any{}, "axis": "procs", "values": []float64{1}},
		map[string]any{"model": map[string]any{}, "axis": "alpha"},
		map[string]any{"model": map[string]any{}, "axis": "lambda", "values": []float64{-1}},
		map[string]any{"model": map[string]any{}, "axis": "alpha", "values": make([]float64, maxRequestSweepCells+1)})
	seeds := make([][]byte, len(reqs))
	for i, r := range reqs {
		buf, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		seeds[i] = buf
	}
	return seeds
}

// decodesAs reports whether body decodes into into as a handler decodes
// its request: one JSON value and no unknown field.
func decodesAs(body []byte, into any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return decodeOne(dec, into) == nil
}

// FuzzSweepRequests serves generated bodies through POST /v1/sweep on a
// fresh NewServer: no input may panic or answer a 5xx other than a 503
// carrying Retry-After, and a 200 body must be NDJSON whose every line
// is a JSON object holding either an "x" (a row) or an "error" (the
// trailing envelope), at most one line per axis value plus one. Inputs
// with more than 16 axis values or 8 topology groups are skipped, unless
// the server refuses them before any work.
func FuzzSweepRequests(f *testing.F) {
	for _, body := range sweepSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var q SweepRequest
		if decodesAs(body, &q) && len(q.Values) <= maxRequestSweepCells &&
			(len(q.Values) > 16 || q.Hetero != nil && len(q.Hetero.Topology.Groups) > 8) {
			t.Skip("asks for more work than a fuzz input may spend")
		}
		rec := httptest.NewRecorder()
		NewServer(NewEngine(Options{MaxConcurrent: 1})).ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
		switch code := rec.Code; {
		case code == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") != "":
			return
		case code >= 500:
			t.Fatalf("%q: status %d: %s", body, code, rec.Body)
		case code != http.StatusOK:
			return
		}
		lines := bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n"))
		if len(lines) > len(q.Values)+1 {
			t.Fatalf("%q: %d lines for %d axis values", body, len(lines), len(q.Values))
		}
		for i, line := range lines {
			var obj map[string]json.RawMessage
			if err := json.Unmarshal(line, &obj); err != nil || obj == nil {
				t.Fatalf("%q: line %d is not a JSON object: %q", body, i, line)
			}
			_, row := obj["x"]
			_, envelope := obj["error"]
			if row == envelope {
				t.Fatalf("%q: line %d is neither a row nor an error envelope: %q", body, i, line)
			}
		}
	})
}

// cacheFillSeeds are fill bodies: one exported entry of every kind, the
// refused shapes of TestCacheFillRefusesTrailingData and the malformed
// entries of TestImportHotRejectsMalformedEntriesIndividually.
func cacheFillSeeds(f *testing.F) [][]byte {
	ctx := context.Background()
	donor := NewEngine(Options{})
	m := heraModel(f)
	hm, _, err := testTopologySpec(1e-6).Build()
	if err != nil {
		f.Fatal(err)
	}
	hres, _, err := donor.HeteroOptimize(ctx, hm, hetero.PatternOptions{})
	if err != nil {
		f.Fatal(err)
	}
	for _, call := range []func() error{
		func() error { _, _, err := donor.Optimize(ctx, m, optimize.PatternOptions{}); return err },
		func() error {
			_, _, err := donor.MultilevelOptimize(ctx, m, testFrac, multilevel.PatternOptions{})
			return err
		},
		func() error {
			_, _, err := donor.Simulate(ctx, m, 5000, 4096, sim.RunConfig{Runs: 4, Patterns: 4, Seed: 3})
			return err
		},
		func() error {
			_, _, err := donor.MultilevelSimulate(ctx, m, testFrac, multilevel.Pattern{T: 2000, K: 3}, 4096, 4, 4, 3)
			return err
		},
		func() error { _, _, err := donor.HeteroSimulate(ctx, hm, hres.Groups, 4, 4, 3); return err },
	} {
		if err := call(); err != nil {
			f.Fatal(err)
		}
	}
	// One entry per body: the minimizer takes long over a large input.
	var seeds [][]byte
	for _, e := range donor.ExportHot(0) {
		one, err := json.Marshal([]CacheEntry{e})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, one)
	}
	for _, s := range []string{
		"[] junk", "[]]", "[] []", "[]\n\t ", "null", "{}",
		`[{"kind":"nonsense","key":"a#b","value":{}}]`,
		`[{"kind":"opt","key":"no-namespace","value":{}}]`,
		`[{"kind":"opt","key":"a#opt#x","value":"not an object"}]`,
		`[{"kind":"opt","key":"a#opt#x","value":null}]`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzCacheEndpoints offers a generated body to POST /v1/cache/fill on a
// fresh NewServer, then reads GET /v1/cache/hot with a generated limit.
// Neither may panic or answer a 5xx; a fill accepts at most what it was
// offered; the export lists at most what the fill accepted, and at most
// a positive limit; and a second fresh server accepts every exported
// entry.
func FuzzCacheEndpoints(f *testing.F) {
	for _, body := range cacheFillSeeds(f) {
		for _, limit := range []string{"", "0", "2", "-1", "x", "5000"} {
			f.Add(body, limit)
		}
	}
	serve := func(srv *Server, method, target string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		return rec
	}
	fill := func(t *testing.T, srv *Server, body []byte) (FillResponse, int) {
		rec := serve(srv, http.MethodPost, "/v1/cache/fill", body)
		var fr FillResponse
		switch {
		case rec.Code >= 500:
			t.Fatalf("fill %q: status %d: %s", body, rec.Code, rec.Body)
		case rec.Code == http.StatusOK:
			if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil {
				t.Fatalf("fill %q: 200 body %q: %v", body, rec.Body, err)
			}
			if fr.Accepted < 0 || fr.Accepted > fr.Offered {
				t.Fatalf("fill %q: accepted %d of %d offered", body, fr.Accepted, fr.Offered)
			}
		}
		return fr, rec.Code
	}
	f.Fuzz(func(t *testing.T, body []byte, limit string) {
		srv := NewServer(NewEngine(Options{MaxConcurrent: 1}))
		filled, _ := fill(t, srv, body)
		rec := serve(srv, http.MethodGet, "/v1/cache/hot?"+url.Values{"limit": {limit}}.Encode(), nil)
		if rec.Code >= 500 {
			t.Fatalf("hot limit %q: status %d: %s", limit, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var hot []CacheEntry
		if err := json.Unmarshal(rec.Body.Bytes(), &hot); err != nil {
			t.Fatalf("hot limit %q: 200 body %q: %v", limit, rec.Body, err)
		}
		if len(hot) > filled.Accepted {
			t.Fatalf("hot export lists %d entries after a fill that accepted %d", len(hot), filled.Accepted)
		}
		if n, err := strconv.Atoi(limit); err == nil && n > 0 && len(hot) > n {
			t.Fatalf("hot export lists %d entries past limit %d", len(hot), n)
		}
		again, code := fill(t, NewServer(NewEngine(Options{MaxConcurrent: 1})), rec.Body.Bytes())
		if code != http.StatusOK || again.Accepted != len(hot) {
			t.Fatalf("a fresh server accepted %d of %d exported entries (status %d)", again.Accepted, len(hot), code)
		}
	})
}
