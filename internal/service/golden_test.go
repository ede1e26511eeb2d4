package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// unaryGolden pins what every unary endpoint answers to a fixed request
// table: the status, Content-Type and Retry-After headers and the
// SHA-256 of the body. A refactor of the request path (decode, Build,
// status mapping, encode) must leave every entry unchanged.
var unaryGolden = map[string]string{
	"/v1/evaluate bad-model":                "400 application/json retry-after=\"\" 59778867268cd29ef0b0136e31832d4097d96081413240d91325be803f5d313b",
	"/v1/evaluate malformed":                "400 application/json retry-after=\"\" 9cf4ee19006dac1ae185d98e141aecee071257fb6720e8db83151af4365fcc27",
	"/v1/evaluate unknown-field":            "400 application/json retry-after=\"\" 3cf9d273f53a2acb98f3ac3509607ba6e0ab620d1f7da55b8045d5cfe8efe698",
	"/v1/evaluate valid":                    "200 application/json retry-after=\"\" cc36423cb2d9c5300e82399e654855c63e2705caa02ede501a7459e7eed78ad3",
	"/v1/evaluate trailing-data":            "400 application/json retry-after=\"\" 52c6a30a6e7a64591357180b3d233c54620079c9fad7af0b75dd75122bbe9b54",
	"/v1/hetero/optimize bad-model":         "400 application/json retry-after=\"\" 4c400bd4290c09379519b0be582db080361b423bd173bd02604948b956b11f80",
	"/v1/hetero/optimize malformed":         "400 application/json retry-after=\"\" 9cf4ee19006dac1ae185d98e141aecee071257fb6720e8db83151af4365fcc27",
	"/v1/hetero/optimize saturated":         "503 application/json retry-after=\"1\" 634e30b25437dbf2fb057106de072dc6965433db2d2316dfe82796b475dbf16f",
	"/v1/hetero/optimize unknown-field":     "400 application/json retry-after=\"\" 3cf9d273f53a2acb98f3ac3509607ba6e0ab620d1f7da55b8045d5cfe8efe698",
	"/v1/hetero/optimize valid":             "200 application/json retry-after=\"\" 1df496c7f884e8f2fcfec3106d015a9922a155be78af047844bfbfe24752dd0f",
	"/v1/hetero/optimize trailing-data":     "400 application/json retry-after=\"\" 52c6a30a6e7a64591357180b3d233c54620079c9fad7af0b75dd75122bbe9b54",
	"/v1/hetero/simulate bad-model":         "400 application/json retry-after=\"\" 4c400bd4290c09379519b0be582db080361b423bd173bd02604948b956b11f80",
	"/v1/hetero/simulate malformed":         "400 application/json retry-after=\"\" 9cf4ee19006dac1ae185d98e141aecee071257fb6720e8db83151af4365fcc27",
	"/v1/hetero/simulate over-budget":       "422 application/json retry-after=\"\" b9c4c92f3c1852056bfaccea8da736617a48ffea04e21b56b9567293196d3dac",
	"/v1/hetero/simulate saturated":         "503 application/json retry-after=\"1\" 634e30b25437dbf2fb057106de072dc6965433db2d2316dfe82796b475dbf16f",
	"/v1/hetero/simulate unknown-field":     "400 application/json retry-after=\"\" 3cf9d273f53a2acb98f3ac3509607ba6e0ab620d1f7da55b8045d5cfe8efe698",
	"/v1/hetero/simulate valid":             "200 application/json retry-after=\"\" 31a076cf43021f373f957eb08e34d4fb882f02ddbb8225dadb5fa2a9c9c00bd9",
	"/v1/hetero/simulate trailing-data":     "400 application/json retry-after=\"\" 52c6a30a6e7a64591357180b3d233c54620079c9fad7af0b75dd75122bbe9b54",
	"/v1/multilevel/optimize bad-model":     "400 application/json retry-after=\"\" 59778867268cd29ef0b0136e31832d4097d96081413240d91325be803f5d313b",
	"/v1/multilevel/optimize malformed":     "400 application/json retry-after=\"\" 9cf4ee19006dac1ae185d98e141aecee071257fb6720e8db83151af4365fcc27",
	"/v1/multilevel/optimize saturated":     "503 application/json retry-after=\"1\" 634e30b25437dbf2fb057106de072dc6965433db2d2316dfe82796b475dbf16f",
	"/v1/multilevel/optimize unknown-field": "400 application/json retry-after=\"\" 3cf9d273f53a2acb98f3ac3509607ba6e0ab620d1f7da55b8045d5cfe8efe698",
	"/v1/multilevel/optimize valid":         "200 application/json retry-after=\"\" 94a23cc200dd9f9af72fa3a0b0a713c1900366aebd435a9d11212695b8d686c7",
	"/v1/multilevel/optimize trailing-data": "400 application/json retry-after=\"\" 52c6a30a6e7a64591357180b3d233c54620079c9fad7af0b75dd75122bbe9b54",
	"/v1/multilevel/simulate bad-model":     "400 application/json retry-after=\"\" 580ca0d60f35d791e7d04e9989026a378d14179b152c989c67a1e44f9019afc6",
	"/v1/multilevel/simulate malformed":     "400 application/json retry-after=\"\" 9cf4ee19006dac1ae185d98e141aecee071257fb6720e8db83151af4365fcc27",
	"/v1/multilevel/simulate over-budget":   "422 application/json retry-after=\"\" 2d8dfbbaee721745d2b1325728074d0b7f0f4adfd960e29405967a345d5a534d",
	"/v1/multilevel/simulate saturated":     "503 application/json retry-after=\"1\" 634e30b25437dbf2fb057106de072dc6965433db2d2316dfe82796b475dbf16f",
	"/v1/multilevel/simulate unknown-field": "400 application/json retry-after=\"\" 3cf9d273f53a2acb98f3ac3509607ba6e0ab620d1f7da55b8045d5cfe8efe698",
	"/v1/multilevel/simulate valid":         "200 application/json retry-after=\"\" 8302bf126a8366431dada2f45aa82ded67e0728ce4118d06e2571696e86ffdd1",
	"/v1/multilevel/simulate trailing-data": "400 application/json retry-after=\"\" 52c6a30a6e7a64591357180b3d233c54620079c9fad7af0b75dd75122bbe9b54",
	"/v1/optimize bad-model":                "400 application/json retry-after=\"\" 293408010017f39999e60ee16108fb6477a83f9fa0dd35cc373cf16f53c6c21e",
	"/v1/optimize malformed":                "400 application/json retry-after=\"\" 9cf4ee19006dac1ae185d98e141aecee071257fb6720e8db83151af4365fcc27",
	"/v1/optimize saturated":                "503 application/json retry-after=\"1\" 634e30b25437dbf2fb057106de072dc6965433db2d2316dfe82796b475dbf16f",
	"/v1/optimize unknown-field":            "400 application/json retry-after=\"\" 3cf9d273f53a2acb98f3ac3509607ba6e0ab620d1f7da55b8045d5cfe8efe698",
	"/v1/optimize valid":                    "200 application/json retry-after=\"\" 8d6bf1a9e28750ea0b20d1306fd2a629cbe13499a4413055d964ce6786c3ee99",
	"/v1/optimize trailing-data":            "400 application/json retry-after=\"\" 52c6a30a6e7a64591357180b3d233c54620079c9fad7af0b75dd75122bbe9b54",
	"/v1/simulate bad-model":                "400 application/json retry-after=\"\" 669290898f2106f29a87be7ebb0f01c7442f8cdb32d2416a5fc0aa7eb16396de",
	"/v1/simulate machine":                  "200 application/json retry-after=\"\" d7a6c92b8a9ee1f519955b439c43a5909aea40f567dbb6e59aba6ce97333d511",
	"/v1/simulate machine-weibull":          "200 application/json retry-after=\"\" 98032238216662ad6e90b15bef68f3d3d666cb4badbf572f9f335b13561ef6e2",
	"/v1/simulate malformed":                "400 application/json retry-after=\"\" 9cf4ee19006dac1ae185d98e141aecee071257fb6720e8db83151af4365fcc27",
	"/v1/simulate over-budget":              "422 application/json retry-after=\"\" d96825f964547041b892429ce702adee9d1ca82e83e3d8a081fa0cab836a6277",
	"/v1/simulate saturated":                "503 application/json retry-after=\"1\" 634e30b25437dbf2fb057106de072dc6965433db2d2316dfe82796b475dbf16f",
	"/v1/simulate unknown-field":            "400 application/json retry-after=\"\" 3cf9d273f53a2acb98f3ac3509607ba6e0ab620d1f7da55b8045d5cfe8efe698",
	"/v1/simulate valid":                    "200 application/json retry-after=\"\" ceb829f8d7df55a77efad240b48f32ab45b1f970578da7d1e7193aa60c22e31b",
	"/v1/simulate trailing-data":            "400 application/json retry-after=\"\" 52c6a30a6e7a64591357180b3d233c54620079c9fad7af0b75dd75122bbe9b54",
}

// goldenRequest is one row of the table: a name and the raw body.
type goldenRequest struct{ name, body string }

// unaryGoldenTable is the request table. Every endpoint gets a valid
// request, the valid request followed by a stray '}' (trailing data),
// malformed JSON, an unknown field and a bad model; the campaign
// endpoints also get an over-budget request, and /v1/simulate also runs
// the machine-level simulator under both failure laws.
func unaryGoldenTable(t testing.TB) map[string][]goldenRequest {
	t.Helper()
	js := func(v any) string {
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	topo := js(testTopologySpec(0))
	bad := []goldenRequest{
		{"malformed", `{"model":`},
		{"unknown-field", `{"nope":1}`},
	}
	rows := func(extra ...goldenRequest) []goldenRequest {
		return append(append([]goldenRequest{}, bad...), extra...)
	}
	table := map[string][]goldenRequest{
		"/v1/evaluate": rows(
			goldenRequest{"valid", `{"model":{"platform":"hera","scenario":1},"t":6240,"p":219}`},
			goldenRequest{"bad-model", `{"model":{"platform":"nonesuch"}}`},
		),
		"/v1/optimize": rows(
			goldenRequest{"valid", `{"model":{"platform":"hera","scenario":3}}`},
			goldenRequest{"bad-model", `{"model":{"scenario":9}}`},
		),
		"/v1/simulate": rows(
			goldenRequest{"valid", `{"model":{"platform":"hera","scenario":1},"t":6240,"p":219,"runs":20,"patterns":20,"seed":7}`},
			goldenRequest{"machine", `{"model":{"platform":"hera","scenario":1},"t":6240,"p":219,"runs":20,"patterns":20,"seed":7,"machine":true}`},
			goldenRequest{"machine-weibull", `{"model":{"platform":"hera","scenario":1},"t":6240,"p":219,"runs":20,"patterns":20,"seed":7,"machine":true,"dist":"weibull","shape":0.7}`},
			goldenRequest{"bad-model", `{"model":{"lambda":-1e-9}}`},
			goldenRequest{"over-budget", `{"model":{},"runs":2000000000,"patterns":2000000000}`},
		),
		"/v1/multilevel/optimize": rows(
			goldenRequest{"valid", `{"model":{"platform":"hera","scenario":3},"in_mem_fraction":0.1}`},
			goldenRequest{"bad-model", `{"model":{"platform":"nonesuch"}}`},
		),
		"/v1/multilevel/simulate": rows(
			goldenRequest{"valid", `{"model":{"platform":"hera","scenario":3},"runs":20,"patterns":20,"seed":7}`},
			goldenRequest{"bad-model", `{"model":{"scenario":7}}`},
			goldenRequest{"over-budget", `{"model":{"platform":"hera","scenario":3},"runs":1048576,"patterns":1048576}`},
		),
		"/v1/hetero/optimize": rows(
			goldenRequest{"valid", `{"topology":` + topo + `}`},
			goldenRequest{"bad-model", `{"topology":{"groups":[]}}`},
		),
		"/v1/hetero/simulate": rows(
			goldenRequest{"valid", `{"topology":` + topo + `,"runs":20,"patterns":20,"seed":7}`},
			goldenRequest{"bad-model", `{"topology":{"groups":[]}}`},
			goldenRequest{"over-budget", `{"topology":` + topo + `,"runs":100000,"patterns":10000}`},
		),
	}
	for path, reqs := range table {
		for _, r := range reqs {
			if r.name == "valid" {
				table[path] = append(reqs, goldenRequest{"trailing-data", r.body + "}"})
			}
		}
	}
	return table
}

// goldenAnswer posts body to path and renders the pinned answer.
func goldenAnswer(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return fmt.Sprintf("%d %s retry-after=%q %s", resp.StatusCode,
		resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), hex.EncodeToString(sum[:]))
}

// TestUnaryResponseGolden sends the request table to every unary
// endpoint, each request to a fresh replica so no answer depends on
// another's cache entries, plus a valid request to a saturated replica
// for each endpoint that queues, and compares each answer with
// unaryGolden. A mismatch logs every observed answer as a map literal.
func TestUnaryResponseGolden(t *testing.T) {
	got := map[string]string{}
	table := unaryGoldenTable(t)
	for path, reqs := range table {
		for _, r := range reqs {
			_, ts := newTestServer(t)
			got[path+" "+r.name] = goldenAnswer(t, ts.URL+path, r.body)
		}
	}

	// A saturated scheduler: the only slot is held and the one queue
	// place is taken, so every queued endpoint sheds at once.
	srv := NewServer(NewEngine(Options{MaxConcurrent: 1, MaxQueued: 1}))
	sat := httptest.NewServer(srv)
	t.Cleanup(sat.Close)
	e := srv.Engine()
	if err := e.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer e.release()
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() { waiter <- e.acquire(ctx) }()
	defer func() { cancel(); <-waiter }()
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	for path, reqs := range table {
		if path == "/v1/evaluate" {
			continue // evaluations never queue
		}
		for _, r := range reqs {
			if r.name == "valid" {
				got[path+" saturated"] = goldenAnswer(t, sat.URL+path, r.body)
			}
		}
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	mismatch := len(got) != len(unaryGolden)
	for _, k := range keys {
		if want, ok := unaryGolden[k]; !ok || want != got[k] {
			mismatch = true
			t.Errorf("%s:\n got %s\nwant %s", k, got[k], want)
		}
	}
	if mismatch {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("observed answers:\n%s", b.String())
	}
}
