package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/xmath"
)

func sweepModels(t *testing.T, lambdas []float64) []core.Model {
	t.Helper()
	models := make([]core.Model, len(lambdas))
	for i, l := range lambdas {
		m, err := experiments.BuildModel(platform.Hera().WithLambda(l), costmodel.Scenario3, 0.1, 3600)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	return models
}

var sweepLambdas = []float64{1e-10, 2e-10, 4e-10, 8e-10, 1.6e-9}

// sweepProtocol is one protocol's sweep axis under test: the stream,
// the protocol's per-request optimize on the same engine, and the
// library optimum, each reduced to the fields a sweep row carries (X and
// Cached aside). The single-level stream is Engine.SweepStream; the
// two-level and heterogeneous streams are reachable only through
// /v1/sweep.
type sweepProtocol struct {
	name     string
	calls    func(Stats) uint64
	sweep    func(t *testing.T, url string, e *Engine, cold bool) []SweepRow
	optimize func(t *testing.T, e *Engine, i int) (row SweepRow, cached bool)
	library  func(t *testing.T, i int) SweepRow
}

func sweepProtocols(t *testing.T) []sweepProtocol {
	ctx := context.Background()
	models := sweepModels(t, sweepLambdas)
	singleRow := func(r optimize.PatternResult) SweepRow {
		return SweepRow{T: r.T, P: r.P, Overhead: r.Overhead, Method: r.Method, Class: r.Class.String(),
			AtPBound: r.AtPBound, Evals: r.Evals, Warm: r.Warm}
	}
	frac := testFrac
	mlRow := func(r multilevel.PatternResult) SweepRow {
		return SweepRow{T: r.T, K: r.K, P: r.P, Overhead: r.PredictedH, Method: "multilevel",
			AtPBound: r.AtPBound, Evals: r.Evals, Warm: r.Warm}
	}
	comms := []float64{0, 1e-6, 4e-6, 1e-5}
	hms := make([]core.HeteroModel, len(comms))
	var tp platform.Topology
	for i, c := range comms {
		hm, cellTP, err := testTopologySpec(c).Build()
		if err != nil {
			t.Fatal(err)
		}
		hms[i], tp = hm, cellTP
	}
	hgRow := func(r hetero.PatternResult) SweepRow {
		return SweepRow{Overhead: r.Overhead, Method: "hetero", Evals: r.Evals, G: r.Active,
			Groups: groupPlansJSON(tp, r.Groups), Warm: r.Warm}
	}
	postSweep := func(t *testing.T, url string, req SweepRequest) []SweepRow {
		rows, code := postNDJSON(t, url, req)
		if code != http.StatusOK {
			t.Fatalf("sweep status %d", code)
		}
		return rows
	}
	return []sweepProtocol{{
		name:  "single",
		calls: func(st Stats) uint64 { return st.SweepCalls },
		sweep: func(t *testing.T, _ string, e *Engine, cold bool) []SweepRow {
			var rows []SweepRow
			err := e.SweepStream(ctx, models, optimize.PatternOptions{}, cold, func(_ int, c SweepCell) error {
				row := singleRow(c.Result)
				row.Cached = c.Cached
				rows = append(rows, row)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return rows
		},
		optimize: func(t *testing.T, e *Engine, i int) (SweepRow, bool) {
			r, cached, err := e.Optimize(ctx, models[i], optimize.PatternOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return singleRow(r), cached
		},
		library: func(t *testing.T, i int) SweepRow {
			r, err := optimize.OptimalPattern(models[i], optimize.PatternOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return singleRow(r)
		},
	}, {
		name:  "multilevel",
		calls: func(st Stats) uint64 { return st.MultilevelSweepCalls },
		sweep: func(t *testing.T, url string, _ *Engine, cold bool) []SweepRow {
			return postSweep(t, url, SweepRequest{
				Model: ModelSpec{Platform: "hera", Scenario: 3}, Axis: "lambda", Values: sweepLambdas,
				Cold: cold, Multilevel: &MultilevelSweepSpec{InMemFraction: &frac},
			})
		},
		optimize: func(t *testing.T, e *Engine, i int) (SweepRow, bool) {
			r, cached, err := e.MultilevelOptimize(ctx, models[i], frac, multilevel.PatternOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return mlRow(r), cached
		},
		library: func(t *testing.T, i int) SweepRow {
			r, err := multilevel.OptimalPattern(models[i], multilevel.InMemoryFraction(models[i], frac), multilevel.PatternOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return mlRow(r)
		},
	}, {
		name:  "hetero",
		calls: func(st Stats) uint64 { return st.HeteroSweepCalls },
		sweep: func(t *testing.T, url string, _ *Engine, cold bool) []SweepRow {
			return postSweep(t, url, SweepRequest{
				Axis: "comm", Values: comms, Cold: cold,
				Hetero: &HeteroSweepSpec{Topology: testTopologySpec(0)},
			})
		},
		optimize: func(t *testing.T, e *Engine, i int) (SweepRow, bool) {
			r, cached, err := e.HeteroOptimize(ctx, hms[i], hetero.PatternOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return hgRow(r), cached
		},
		library: func(t *testing.T, i int) SweepRow {
			r, err := hetero.OptimalPattern(hms[i], hetero.PatternOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return hgRow(r)
		},
	}}
}

// sameCell reports whether two rows carry the same result bits.
func sameCell(a, b SweepRow) bool {
	a.X, a.Cached, b.X, b.Cached = 0, false, 0, false
	return reflect.DeepEqual(a, b)
}

// TestEngineSweepColdBitIdenticalToOptimize pins the cold-mode contract
// for every protocol: every cell equals the protocol's per-cell optimize
// result bitwise, and the two paths share cache entries in both
// directions.
func TestEngineSweepColdBitIdenticalToOptimize(t *testing.T) {
	for _, p := range sweepProtocols(t) {
		t.Run(p.name, func(t *testing.T) {
			srv, ts := newTestServer(t)
			e := srv.Engine()
			// Optimize first, then sweep: the cold chain serves the cell
			// from the per-request entry.
			first, _ := p.optimize(t, e, 0)
			cells := p.sweep(t, ts.URL, e, true)
			if !cells[0].Cached || !sameCell(cells[0], first) {
				t.Errorf("cell 0: cold sweep did not serve the optimize cache entry: %+v vs %+v", cells[0], first)
			}
			for i := range cells {
				res, cached := p.optimize(t, e, i)
				if !cached {
					t.Errorf("cell %d: cold sweep did not warm the optimize cache", i)
				}
				if !sameCell(res, cells[i]) {
					t.Errorf("cell %d: sweep %+v != optimize %+v", i, cells[i], res)
				}
			}
			if n := p.calls(e.Stats()); n != 1 {
				t.Errorf("sweep calls = %d, want 1", n)
			}
		})
	}
}

// TestEngineSweepWarmWithinTolAndIsolated checks the warm mode for every
// protocol: cells agree with the library optimum within the refinement
// tolerance, the per-cell cache serves a repeat sweep, and the
// per-request optimize cache is NOT polluted (bit-exactness of optimize
// survives a warm sweep).
func TestEngineSweepWarmWithinTolAndIsolated(t *testing.T) {
	for _, p := range sweepProtocols(t) {
		t.Run(p.name, func(t *testing.T) {
			srv, ts := newTestServer(t)
			e := srv.Engine()
			cells := p.sweep(t, ts.URL, e, false)
			warm := 0
			for i, cell := range cells {
				cold := p.library(t, i)
				if cell.Warm {
					warm++
				}
				if d := xmath.RelDiff(cell.Overhead, cold.Overhead); d > 1e-8 {
					t.Errorf("cell %d: overhead off by %.3g", i, d)
				}
				if d := xmath.RelDiff(cell.P, cold.P); d > 1e-4 {
					t.Errorf("cell %d: P* off by %.3g", i, d)
				}
				if len(cell.Groups) != len(cold.Groups) {
					t.Fatalf("cell %d: %d active groups, cold %d", i, len(cell.Groups), len(cold.Groups))
				}
				for j := range cell.Groups {
					if d := xmath.RelDiff(cell.Groups[j].P, cold.Groups[j].P); d > 1e-4 {
						t.Errorf("cell %d group %d: P* off by %.3g", i, j, d)
					}
				}
				// Every optimize after a warm sweep must be a genuine solve,
				// not a warm-sweep cache hit.
				res, cached := p.optimize(t, e, i)
				if cached {
					t.Errorf("cell %d: warm sweep polluted the optimize cache", i)
				}
				if !sameCell(res, cold) {
					t.Errorf("cell %d: optimize after warm sweep is not bit-identical to the library optimum", i)
				}
			}
			if warm == 0 {
				t.Error("no cell warm-started on a smooth axis")
			}
			again := p.sweep(t, ts.URL, e, false)
			for i := range again {
				if !again[i].Cached {
					t.Errorf("cell %d: repeat sweep missed the per-cell cache", i)
				}
				if !sameCell(again[i], cells[i]) {
					t.Errorf("cell %d: repeat sweep returned different bits", i)
				}
			}
			if n := p.calls(e.Stats()); n != 2 {
				t.Errorf("sweep calls = %d, want 2", n)
			}
		})
	}
}

// TestSweepHTTPStreamsNDJSON drives the endpoint end to end: one NDJSON
// row per axis value, in order, with warm flags and cache provenance.
func TestSweepHTTPStreamsNDJSON(t *testing.T) {
	_, ts := newTestServer(t)
	body := map[string]any{
		"model":  map[string]any{"platform": "hera", "scenario": 3},
		"axis":   "lambda",
		"values": sweepLambdas,
	}
	fetch := func() []SweepRow {
		buf, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content type %q", ct)
		}
		var rows []SweepRow
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var row SweepRow
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
				t.Fatalf("bad row %q: %v", sc.Text(), err)
			}
			rows = append(rows, row)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	rows := fetch()
	if len(rows) != len(sweepLambdas) {
		t.Fatalf("got %d rows, want %d", len(rows), len(sweepLambdas))
	}
	warm := 0
	for i, row := range rows {
		if row.X != sweepLambdas[i] {
			t.Errorf("row %d: x = %g, want %g", i, row.X, sweepLambdas[i])
		}
		if !(row.Overhead > 0) || math.IsInf(row.Overhead, 0) {
			t.Errorf("row %d: overhead %g", i, row.Overhead)
		}
		if row.Cached {
			t.Errorf("row %d: first sweep reported cached", i)
		}
		if row.Warm {
			warm++
		}
	}
	if warm == 0 {
		t.Error("no cell warm-started on a smooth axis")
	}
	for i, row := range fetch() {
		if !row.Cached {
			t.Errorf("row %d: repeat sweep not served from cache", i)
		}
	}
}

// TestSweepHTTPValidation covers the request guards.
func TestSweepHTTPValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"bad axis", map[string]any{"model": map[string]any{}, "axis": "procs", "values": []float64{1}}, http.StatusBadRequest},
		{"no values", map[string]any{"model": map[string]any{}, "axis": "alpha"}, http.StatusBadRequest},
		{"negative lambda", map[string]any{"model": map[string]any{}, "axis": "lambda", "values": []float64{-1}}, http.StatusBadRequest},
		{"too many cells", map[string]any{"model": map[string]any{}, "axis": "alpha", "values": make([]float64, maxRequestSweepCells+1)}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		buf, _ := json.Marshal(tc.body)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// waitNoExtraGoroutines polls until the goroutine count returns to its
// baseline (plus scheduler slack): a hand-rolled leak check — transport,
// handler and sweep-chain goroutines must all wind down.
func waitNoExtraGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepHTTPClientHangUpMidStream pins the streaming contract: a
// client that reads a few NDJSON rows and hangs up stops the solver
// chain promptly — the remaining cells are never solved — and no
// goroutines are left behind.
func TestSweepHTTPClientHangUpMidStream(t *testing.T) {
	srv := NewServer(NewEngine(Options{}))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	before := runtime.NumGoroutine()

	const cells = 512
	values := make([]float64, cells)
	for i := range values {
		values[i] = 1e-11 * (1 + float64(i)/cells)
	}
	body := map[string]any{
		"model":  map[string]any{"platform": "hera", "scenario": 3},
		"axis":   "lambda",
		"values": values,
		// Cold cells pay the full grid scan, making the chain slow enough
		// that the hang-up demonstrably lands mid-axis.
		"cold": true,
	}
	buf, _ := json.Marshal(body)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The first rows arrive while the chain is still solving the rest —
	// that they can be read at all before completion is the streaming
	// behaviour under test.
	sc := bufio.NewScanner(resp.Body)
	rows := 0
	for rows < 2 && sc.Scan() {
		var row SweepRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad row %q: %v", sc.Text(), err)
		}
		rows++
	}
	if rows != 2 {
		t.Fatalf("stream ended after %d rows: %v", rows, sc.Err())
	}
	cancel() // hang up mid-stream
	resp.Body.Close()

	// The engine must notice and drain promptly.
	e := srv.Engine()
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sweep still in flight after hang-up: %+v", e.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The chain stopped short of the axis, and stays stopped: every solved
	// cold cell is one optimize-cache entry.
	solved := e.Stats().OptimizeCache.Entries
	if solved >= cells {
		t.Errorf("all %d cells solved despite the hang-up", cells)
	}
	time.Sleep(50 * time.Millisecond)
	if after := e.Stats().OptimizeCache.Entries; after != solved {
		t.Errorf("cells kept solving after the drain: %d -> %d", solved, after)
	}

	client.CloseIdleConnections()
	ts.Close()
	waitNoExtraGoroutines(t, before)
}
