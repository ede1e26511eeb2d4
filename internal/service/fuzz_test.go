package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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
	decodes := func(into any) bool {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return decodeOne(dec, into) == nil
	}
	var runs, patterns, factor, clocks int
	switch path {
	case "/v1/simulate":
		var q SimulateRequest
		if !decodes(&q) {
			return false
		}
		runs, patterns, factor = q.Runs, q.Patterns, 1
		if q.Machine {
			clocks = int(min(cmp.Or(q.P, 2048), 1e9))
		}
	case "/v1/multilevel/simulate":
		var q MultilevelSimulateRequest
		if !decodes(&q) {
			return false
		}
		runs, patterns, factor = q.Runs, q.Patterns, max(q.K, 1)
	case "/v1/hetero/optimize", "/v1/hetero/simulate":
		var q HeteroSimulateRequest // the optimize request's fields and more
		if !decodes(&q) {
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
