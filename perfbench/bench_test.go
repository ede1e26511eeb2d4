package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"amdahlyd/internal/service"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		q     float64
		want  float64
		ok    bool
		label string
	}{
		{1000, 0.99, 990, true, "p99 of 1000 leaves exactly 10 above"},
		{999, 0.99, 990, false, "p99 of 999 leaves 9 above"},
		{20, 0.5, 10, true, "p50 of 20 leaves 10 above"},
		{19, 0.5, 10, false, "p50 of 19 leaves 9 above"},
		{1, 0.5, 1, false, "a single sample supports nothing"},
	} {
		v, n, ok := percentile(seq(tc.n), tc.q)
		if v != tc.want || n != tc.n || ok != tc.ok {
			t.Errorf("%s: got (%g, n=%d, ok=%t), want (%g, n=%d, ok=%t)", tc.label, v, n, ok, tc.want, tc.n, tc.ok)
		}
	}
	if v, n, ok := percentile(nil, 0.5); v != 0 || n != 0 || ok {
		t.Errorf("empty sample: got (%g, %d, %t), want (0, 0, false)", v, n, ok)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{name: "parent", trace: 1, id: 1, start: 0, end: 100 * us},
		{name: "a", trace: 1, id: 2, parent: 1, start: 10 * us, end: 40 * us},
		{name: "b", trace: 1, id: 3, parent: 1, start: 30 * us, end: 60 * us},
		{name: "c", trace: 1, id: 4, parent: 1, start: 90 * us, end: 120 * us}, // outlives the parent
		{name: "grandchild", trace: 1, id: 5, parent: 2, start: 15 * us, end: 20 * us},
	}
	self := selfTimes(spans)
	// Children cover [10,60] and [90,100]: 60 µs of the parent's 100.
	if got := self[1]; got != 40*us {
		t.Errorf("parent self = %v, want 40µs", got)
	}
	if got := self[2]; got != 25*us {
		t.Errorf("child a self = %v, want 25µs (30 minus its 5 µs child)", got)
	}
	if got := self[4]; got != 30*us {
		t.Errorf("leaf c self = %v, want its whole 30µs", got)
	}
}

func TestSameSeedSameBodyStream(t *testing.T) {
	flat := func(ws warmSet, cold [][]body) []byte {
		var buf bytes.Buffer
		for _, b := range ws.bodies {
			buf.Write(b.data)
		}
		for _, s := range ws.streams {
			fmt.Fprint(&buf, s)
		}
		for _, s := range cold {
			for _, b := range s {
				buf.Write(b.data)
			}
		}
		return buf.Bytes()
	}
	gen := func(seed uint64) []byte {
		return flat(newWarmSet(seed, 2, 500), newColdStreams(seed, 2, 200))
	}
	a, b := gen(7), gen(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different body streams")
	}
	if bytes.Equal(a, gen(8)) {
		t.Fatal("different seeds generated the same body stream")
	}
}

func TestGeneratedBodiesAllSucceed(t *testing.T) {
	srv := service.NewServer(service.NewEngine(service.Options{}))
	ws := newWarmSet(3, 1, 10)
	bodies := append([]body(nil), ws.bodies...)
	bodies = append(bodies, newColdStreams(3, 1, 200)[0]...)
	for _, b := range bodies {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, classPaths[b.cls], bytes.NewReader(b.data)))
		if err := checkShape(&b, w.Code, w.Body.Bytes()); err != nil {
			t.Errorf("%s %s: %v", classNames[b.cls], b.data, err)
		}
	}
}

func TestMetricNamesMatchGrammarAndBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for w, prefixes := range unexercised {
		if _, ok := workloads[w]; !ok {
			t.Errorf("unexercised lists unknown workload %q", w)
		}
		for _, p := range prefixes {
			matched := false
			for _, d := range perLayer {
				matched = matched || strings.HasPrefix(d.Name, p)
			}
			if !matched {
				t.Errorf("unexercised[%q] prefix %q matches no per-layer metric", w, p)
			}
		}
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		got   []struct{ Name, Unit, Better string }
		want  []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(c.got), c.label, len(c.want))
			continue
		}
		for i, d := range c.want {
			if g := c.got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("BENCHMARK.json %s[%d] = %+v, the benchmark reports %+v", c.label, i, g, d)
			}
		}
	}
}

func TestSpansLinkRouterToReplicaThroughTransport(t *testing.T) {
	rec := newRecorder()
	f, err := startFleet(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	b := newWarmSet(1, 1, 1).bodies[warmPerClass] // the first optimize body
	status, reply, _, trace, err := send(http.DefaultClient, f.url, &b, rec)
	if err != nil || status != http.StatusOK {
		t.Fatalf("traced request: status %d, %v: %s", status, err, reply)
	}
	byName := map[string]span{}
	for _, s := range rec.snapshot() {
		if s.trace != trace {
			t.Errorf("span %s carries trace %d, want %d", s.name, s.trace, trace)
		}
		byName[s.name] = s
	}
	chain := []string{"client", "fleet.router", "fleet.forward", "service.server"}
	for i, name := range chain {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("no %s span recorded (got %v)", name, byName)
		}
		if i > 0 && s.parent != byName[chain[i-1]].id {
			t.Errorf("%s span's parent is %d, want the %s span %d", name, s.parent, chain[i-1], byName[chain[i-1]].id)
		}
	}
	// Untraced requests (no header) record nothing.
	before := len(rec.snapshot())
	if _, _, _, _, err := send(http.DefaultClient, f.url, &b, nil); err != nil {
		t.Fatal(err)
	}
	if n := len(rec.snapshot()); n != before {
		t.Errorf("an untraced request recorded %d spans", n-before)
	}
}

func TestRefSlicesRunAndEchoIsChecked(t *testing.T) {
	for _, useMath := range []bool{false, true} {
		ref := newRefLoad(2, useMath)
		if d, err := ref.slice(); err != nil || d <= 0 {
			t.Errorf("useMath=%t: slice took %v, %v", useMath, d, err)
		}
		ref.close()
	}
	// An echo server that answers with anything but the payload fails
	// the slice rather than timing a different load.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("{}")) }))
	defer bad.Close()
	if err := (&refLoad{srv: bad, payload: []byte(`{"x":1}`)}).roundTrip(http.DefaultClient); err == nil {
		t.Error("an altered echo passed the round trip's check")
	}
}
