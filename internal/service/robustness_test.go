package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/sim"
)

// --- /readyz: readiness split from liveness ---

func TestReadyzReportsSaturationBeforeRequestsFail(t *testing.T) {
	e := NewEngine(Options{MaxConcurrent: 1, MaxQueued: 1})
	srv := NewServer(e)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("idle readyz = %d, want 200", got)
	}
	// Occupy the one executing slot and the one queue slot: the next job
	// would be shed, so readiness must already be false — while liveness
	// stays green.
	e.sem <- struct{}{}
	e.queue <- struct{}{}
	if e.Ready() {
		t.Fatal("engine with full slot and queue reports Ready")
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("saturated readyz = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz during saturation = %d, want 200 (liveness is not readiness)", got)
	}
	<-e.queue
	<-e.sem
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz after slots freed = %d, want 200", got)
	}
}

func TestReadyzDuringDrain(t *testing.T) {
	srv := NewServer(NewEngine(Options{}))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	srv.StartDrain(time.Hour) // grace irrelevant: readiness must flip now
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz missing Retry-After")
	}
}

// --- graceful drain of in-flight sweep streams ---

func TestSweepStreamDrainsCleanlyMidStream(t *testing.T) {
	srv := NewServer(NewEngine(Options{}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const cells = 2048
	values := make([]float64, cells)
	for i := range values {
		values[i] = 1e-9 * (1 + float64(i)/cells)
	}
	req := SweepRequest{
		Model:  ModelSpec{Platform: "hera", Scenario: 1},
		Axis:   "lambda",
		Values: values,
		Cold:   true,
	}
	buf, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rows, sawDrainLine := 0, false
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]any
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("stream line %d is not complete JSON (mid-row cut): %q", rows, line)
		}
		if msg, ok := probe["error"].(string); ok {
			if !strings.Contains(msg, "draining") {
				t.Fatalf("trailing error line %q does not name the drain", msg)
			}
			sawDrainLine = true
			break
		}
		rows++
		if rows == 1 {
			// First row is out: the stream is live; now pull the rug.
			srv.StartDrain(20 * time.Millisecond)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if !sawDrainLine {
		t.Fatalf("stream of %d rows ended without a drain error line (drain never cut it)", rows)
	}
	if rows == 0 || rows >= cells {
		t.Fatalf("drain cut nothing: %d of %d rows arrived", rows, cells)
	}
}

// --- peer warm-fill: export/import round trip ---

func warmFillModels(t *testing.T, n int) []ModelSpec {
	t.Helper()
	specs := make([]ModelSpec, n)
	for i := range specs {
		alpha := 0.05 + 0.01*float64(i)
		specs[i] = ModelSpec{Platform: "hera", Scenario: 1 + i%6, Alpha: &alpha}
	}
	return specs
}

func TestWarmFillRoundTripBitIdentical(t *testing.T) {
	donor := NewEngine(Options{})
	joiner := NewEngine(Options{})

	specs := warmFillModels(t, 6)
	want := make([]optimize.PatternResult, len(specs))
	for i, spec := range specs {
		m, _, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := donor.Optimize(context.Background(), m, optimize.PatternOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	entries := donor.ExportHot(0)
	if len(entries) < len(specs) {
		t.Fatalf("exported %d entries, want at least %d", len(entries), len(specs))
	}
	raw, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	// The fill crosses a JSON hop exactly as it would between replicas.
	var wire []CacheEntry
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	n, err := joiner.ImportHot(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(entries) {
		t.Fatalf("imported %d of %d entries", n, len(entries))
	}

	for i, spec := range specs {
		m, _, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		got, cached, err := joiner.Optimize(context.Background(), m, optimize.PatternOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !cached {
			t.Fatalf("spec %d: joiner solved despite warm-fill", i)
		}
		if got != want[i] {
			t.Fatalf("spec %d: filled result differs from donor's:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
	if fills := joiner.Stats().CacheFills; fills != uint64(n) {
		t.Fatalf("cache_fills = %d, want %d", fills, n)
	}
}

// TestWarmFillAcceptsEveryExportedKind: the fill's re-encoding check
// must accept every entry an export sends, for all six result kinds, so
// a joiner replays each one bit-identically from cache.
func TestWarmFillAcceptsEveryExportedKind(t *testing.T) {
	ctx := context.Background()
	donor := NewEngine(Options{})
	m := heraModel(t)
	hm, _, err := testTopologySpec(1e-6).Build()
	if err != nil {
		t.Fatal(err)
	}
	hres, _, err := donor.HeteroOptimize(ctx, hm, hetero.PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pat := multilevel.Pattern{T: 2000, K: 3}
	calls := map[string]func(e *Engine) (any, bool, error){
		KindOptimize: func(e *Engine) (any, bool, error) { return e.Optimize(ctx, m, optimize.PatternOptions{}) },
		KindMultilevelOptimize: func(e *Engine) (any, bool, error) {
			return e.MultilevelOptimize(ctx, m, testFrac, multilevel.PatternOptions{})
		},
		KindHeteroOptimize: func(e *Engine) (any, bool, error) { return e.HeteroOptimize(ctx, hm, hetero.PatternOptions{}) },
		KindSimulate: func(e *Engine) (any, bool, error) {
			return e.Simulate(ctx, m, 5000, 4096, sim.RunConfig{Runs: 4, Patterns: 4, Seed: 3})
		},
		KindMultilevelSimulate: func(e *Engine) (any, bool, error) {
			return e.MultilevelSimulate(ctx, m, testFrac, pat, 4096, 4, 4, 3)
		},
		KindHeteroSimulate: func(e *Engine) (any, bool, error) {
			return e.HeteroSimulate(ctx, hm, hres.Groups, 4, 4, 3)
		},
	}
	want := map[string]any{}
	for kind, call := range calls {
		v, _, err := call(donor)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		want[kind] = v
	}
	entries := donor.ExportHot(0)
	if len(entries) != len(calls) {
		t.Fatalf("exported %d entries, want one per kind (%d)", len(entries), len(calls))
	}
	joiner := NewEngine(Options{})
	if n, err := joiner.ImportHot(entries); err != nil || n != len(entries) {
		t.Fatalf("fill accepted %d of %d exported entries (err %v)", n, len(entries), err)
	}
	for kind, call := range calls {
		got, cached, err := call(joiner)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !cached || !reflect.DeepEqual(got, want[kind]) {
			t.Errorf("%s: filled entry not replayed bit-identically (cached=%t)", kind, cached)
		}
	}
}

func TestWarmFillHTTPEndpoints(t *testing.T) {
	donorSrv := NewServer(NewEngine(Options{}))
	donorTS := httptest.NewServer(donorSrv)
	defer donorTS.Close()
	joinerSrv := NewServer(NewEngine(Options{}))
	joinerTS := httptest.NewServer(joinerSrv)
	defer joinerTS.Close()

	// Prime the donor over HTTP.
	for _, spec := range warmFillModels(t, 3) {
		body, _ := json.Marshal(OptimizeRequest{Model: spec})
		resp, err := http.Post(donorTS.URL+"/v1/optimize", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("prime status %d", resp.StatusCode)
		}
	}
	hot, err := http.Get(donorTS.URL + "/v1/cache/hot?limit=16")
	if err != nil {
		t.Fatal(err)
	}
	defer hot.Body.Close()
	var entries []CacheEntry
	if err := json.NewDecoder(hot.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("hot export returned %d entries, want 3", len(entries))
	}
	body, _ := json.Marshal(entries)
	resp, err := http.Post(joinerTS.URL+"/v1/cache/fill", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fill FillResponse
	if err := json.NewDecoder(resp.Body).Decode(&fill); err != nil {
		t.Fatal(err)
	}
	if fill.Accepted != 3 || fill.Offered != 3 {
		t.Fatalf("fill accepted %d/%d, want 3/3", fill.Accepted, fill.Offered)
	}

	// The joiner now serves a filled key from cache, bit-identical to the
	// donor's answer.
	spec := warmFillModels(t, 3)[0]
	reqBody, _ := json.Marshal(OptimizeRequest{Model: spec})
	var answers [2]OptimizeResponse
	for i, base := range []string{donorTS.URL, joinerTS.URL} {
		resp, err := http.Post(base+"/v1/optimize", "application/json", strings.NewReader(string(reqBody)))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&answers[i]); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !answers[i].Cached {
			t.Fatalf("server %d did not serve from cache", i)
		}
	}
	if answers[0].T != answers[1].T || answers[0].P != answers[1].P || answers[0].Overhead != answers[1].Overhead {
		t.Fatalf("filled answer differs: %+v vs %+v", answers[0], answers[1])
	}
}

// TestCacheFillRefusesTrailingData: a fill body is exactly one JSON
// array. Junk, a stray bracket or a second array after it is a 400 with
// nothing imported; trailing whitespace is fine.
func TestCacheFillRefusesTrailingData(t *testing.T) {
	srv := NewServer(NewEngine(Options{}))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for body, want := range map[string]int{
		"[] junk": http.StatusBadRequest,
		"[]]":     http.StatusBadRequest,
		"[] []":   http.StatusBadRequest,
		"[]\n\t ": http.StatusOK,
	} {
		resp, err := http.Post(ts.URL+"/v1/cache/fill", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("fill body %q: status %d, want %d", body, resp.StatusCode, want)
		}
	}
	if n := srv.Engine().Stats().CacheFills; n != 0 {
		t.Errorf("cache_fills = %d after empty fills", n)
	}
}

// --- ImportHot rejects garbage without aborting the fill ---

func TestImportHotRejectsMalformedEntriesIndividually(t *testing.T) {
	donor := NewEngine(Options{})
	pl, err := platform.Lookup("hera")
	if err != nil {
		t.Fatal(err)
	}
	m, err := experiments.BuildModel(pl, costmodel.Scenario(1), 0.1, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := donor.Optimize(context.Background(), m, optimize.PatternOptions{}); err != nil {
		t.Fatal(err)
	}
	good := donor.ExportHot(1)
	if len(good) != 1 {
		t.Fatalf("want 1 exported entry, got %d", len(good))
	}
	joiner := NewEngine(Options{})
	n, err := joiner.ImportHot([]CacheEntry{
		{Kind: "nonsense", Key: "a#b", Value: json.RawMessage(`{}`)},
		{Kind: KindOptimize, Key: "no-namespace", Value: json.RawMessage(`{}`)},
		{Kind: KindOptimize, Key: "a#opt#x", Value: json.RawMessage(`"not an object"`)},
		good[0],
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("accepted %d entries, want exactly the 1 valid one", n)
	}

	// null and {} decode without error into a zero or half-filled result;
	// offered under a real key, they must not poison that model's answer.
	var poison []CacheEntry
	for _, kind := range []string{KindOptimize, KindMultilevelOptimize, KindHeteroOptimize,
		KindSimulate, KindMultilevelSimulate, KindHeteroSimulate} {
		for _, v := range []string{`null`, `{}`} {
			poison = append(poison, CacheEntry{Kind: kind, Key: good[0].Key, Value: json.RawMessage(v)})
		}
	}
	fresh := NewEngine(Options{})
	if n, err := fresh.ImportHot(poison); err != nil || n != 0 {
		t.Fatalf("poisoned fill: accepted %d entries (err %v), want 0", n, err)
	}
	if _, cached, err := fresh.Optimize(context.Background(), m, optimize.PatternOptions{}); err != nil || cached {
		t.Fatalf("optimize after a poisoned fill: cached=%t err=%v, want a genuine solve", cached, err)
	}
}
