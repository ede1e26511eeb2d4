package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"amdahlyd/internal/backoff"
	"amdahlyd/internal/service"
)

// The multi-node integration suite: N real service replicas plus the
// router, all in one process (httptest servers), so fleet behaviour —
// bit-identity, failover, hedging, scripted fault plans, warm-fill — is
// exercised end to end over real HTTP under -race.

type replica struct {
	name string
	srv  *service.Server
	ts   *httptest.Server
}

// newFleet starts n replicas (wrapped in the fault controller) and a
// router over them, with fast retry timing and hedging off unless the
// test opts in.
func newFleet(t *testing.T, n int, ctrl *Controller, hedgeAfter time.Duration) (*Router, []*replica) {
	t.Helper()
	peers := make(map[string]string, n)
	reps := make([]*replica, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%d", i+1)
		srv := service.NewServer(service.NewEngine(service.Options{MaxConcurrent: 2}))
		var h http.Handler = srv
		if ctrl != nil {
			h = ctrl.Wrap(name, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		peers[name] = ts.URL
		reps[i] = &replica{name: name, srv: srv, ts: ts}
	}
	rt, err := NewRouter(RouterOptions{
		Peers:      peers,
		HedgeAfter: hedgeAfter,
		RetryBase:  time.Millisecond,
		MaxDelay:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	return rt, reps
}

func byName(reps []*replica, name string) *replica {
	for _, r := range reps {
		if r.name == name {
			return r
		}
	}
	return nil
}

const heteroTopology = `{"name":"hera+accel","comm":0.02,"scenario":1,"groups":[` +
	`{"name":"cpu","lambda_ind":1.69e-8,"f":0.2188,"s":0.7812,"size":25600,"speed":1,"cp":300,"vp":15},` +
	`{"name":"accel","lambda_ind":8.45e-7,"f":0.2188,"s":0.7812,"size":128,"speed":8,"cp":60,"vp":4}]}`

// infeasibleSweep is a warm sweep whose cell 2 (λ = 1e300) has no
// feasible pattern: its stream is two rows and that cell's error line,
// on every replica alike.
const infeasibleSweep = `{"model":{"platform":"hera","scenario":3},"axis":"lambda","values":[1e-10,1e-9,1e300,1e-8]}`

// fleetRequests covers every shardable request class, including the
// multilevel (ml1|) and heterogeneous (hg1|) key namespaces. Sweeps are
// cold so rows are bitwise independent of request history, except the
// failing one, whose warm cells no earlier request caches.
func fleetRequests() []struct{ path, body string } {
	return []struct{ path, body string }{
		{"/v1/evaluate", `{"model":{"platform":"hera","scenario":1}}`},
		{"/v1/optimize", `{"model":{"platform":"hera","scenario":1}}`},
		{"/v1/optimize", `{"model":{"platform":"hera","scenario":3,"alpha":0.05}}`},
		{"/v1/optimize", `{"model":{"platform":"coastal","scenario":2}}`},
		{"/v1/optimize", `{"model":{"platform":"atlas","scenario":5,"downtime":600}}`},
		{"/v1/simulate", `{"model":{"platform":"hera"},"runs":10,"patterns":10,"seed":7}`},
		{"/v1/multilevel/optimize", `{"model":{"platform":"hera","scenario":3}}`},
		{"/v1/multilevel/simulate", `{"model":{"platform":"hera","scenario":3},"runs":5,"patterns":5,"seed":3}`},
		{"/v1/hetero/optimize", `{"topology":` + heteroTopology + `}`},
		{"/v1/sweep", `{"model":{"platform":"hera","scenario":1},"axis":"lambda","values":[1e-10,1e-9,1e-8],"cold":true}`},
		{"/v1/sweep", `{"model":{"platform":"hera","scenario":3},"axis":"alpha","values":[0.05,0.1,0.2],"cold":true,"multilevel":{}}`},
		{"/v1/sweep", `{"axis":"comm","values":[0.01,0.02],"cold":true,"hetero":{"topology":` + heteroTopology + `}}`},
		{"/v1/sweep", infeasibleSweep},
		// Repeat of an earlier optimize: must be cached=true on both sides
		// (the fleet routes same-model requests to the same replica).
		{"/v1/optimize", `{"model":{"platform":"hera","scenario":1}}`},
	}
}

// TestShardKeyIsTheModelCacheKey: every routed path shards by the
// canonical cache key of the model or topology its body concerns — the
// key the owning replica's caches are built on.
func TestShardKeyIsTheModelCacheKey(t *testing.T) {
	alpha := 0.2
	model := service.ModelSpec{Platform: "atlas", Scenario: 4, Alpha: &alpha}
	m, _, err := model.Build()
	if err != nil {
		t.Fatal(err)
	}
	mk, err := m.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	var topo service.TopologySpec
	if err := json.Unmarshal([]byte(heteroTopology), &topo); err != nil {
		t.Fatal(err)
	}
	hm, _, err := topo.Build()
	if err != nil {
		t.Fatal(err)
	}
	hk, err := hm.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	frac := 0.1
	cases := []struct {
		path string
		body any
		want string
	}{
		{"/v1/evaluate", service.EvaluateRequest{Model: model, T: 5000}, mk},
		{"/v1/optimize", service.OptimizeRequest{Model: model}, mk},
		{"/v1/simulate", service.SimulateRequest{Model: model, Runs: 3}, mk},
		{"/v1/multilevel/optimize", service.MultilevelOptimizeRequest{Model: model, InMemFraction: &frac}, mk},
		{"/v1/multilevel/simulate", service.MultilevelSimulateRequest{Model: model, K: 2}, mk},
		{"/v1/hetero/optimize", service.HeteroOptimizeRequest{Topology: topo}, hk},
		{"/v1/hetero/simulate", service.HeteroSimulateRequest{Topology: topo, Runs: 3}, hk},
		{"/v1/sweep", service.SweepRequest{Model: model, Axis: "alpha", Values: []float64{0.1, 0.3}}, mk},
		{"/v1/sweep", service.SweepRequest{Model: model, Axis: "lambda", Values: []float64{1e-9},
			Multilevel: &service.MultilevelSweepSpec{InMemFraction: &frac}}, mk},
		{"/v1/sweep", service.SweepRequest{Axis: "comm", Values: []float64{0, 0.01},
			Hetero: &service.HeteroSweepSpec{Topology: topo}}, hk},
	}
	for _, tc := range cases {
		body, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ShardKey(tc.path, body)
		if err != nil {
			t.Errorf("%s %s: %v", tc.path, body, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s %s: shard key %q, want %q", tc.path, body, got, tc.want)
		}
	}
}

// TestRouterRejectsMalformedModel: a body whose model cannot be built
// or decoded is a 400 from the router itself, never forwarded.
func TestRouterRejectsMalformedModel(t *testing.T) {
	rt, reps := newFleet(t, 2, nil, -1)
	front := httptest.NewServer(rt)
	defer front.Close()
	for _, tc := range []struct{ path, body string }{
		{"/v1/optimize", `{"model":{"platform":"nonesuch"}}`},
		{"/v1/evaluate", `{"model":{"platform":"hera","scenario":9}}`},
		{"/v1/multilevel/simulate", `{"model":{"scenario":"three"}}`},
		{"/v1/sweep", `{"model":{"platform":"hera","lambda":-1},"axis":"alpha","values":[0.1]}`},
	} {
		if code, body := post(t, front.URL, tc.path, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d (%s), want 400", tc.path, tc.body, code, body)
		}
	}
	for _, r := range reps {
		if st := r.srv.Engine().Stats(); st.Evaluations+st.OptimizeCalls+st.MultilevelSimulateCalls+st.SweepCalls != 0 {
			t.Errorf("%s served a malformed request: %+v", r.name, st)
		}
	}
}

// TestRouterAndReplicaAgreeOnTrailingData: a body holding more than one
// JSON value (junk, a stray bracket or a second value after a valid
// request) gets the same status through the router as from a lone
// replica, on every unary endpoint; trailing whitespace is valid on
// both.
func TestRouterAndReplicaAgreeOnTrailingData(t *testing.T) {
	single := httptest.NewServer(service.NewServer(service.NewEngine(service.Options{MaxConcurrent: 2})))
	defer single.Close()
	rt, _ := newFleet(t, 2, nil, -1)
	front := httptest.NewServer(rt)
	defer front.Close()
	for _, req := range []struct{ path, valid string }{
		{"/v1/evaluate", `{"model":{"platform":"hera","scenario":1}}`},
		{"/v1/optimize", `{"model":{"platform":"hera","scenario":1}}`},
		{"/v1/simulate", `{"model":{"platform":"hera"},"runs":5,"patterns":5,"seed":7}`},
		{"/v1/multilevel/optimize", `{"model":{"platform":"hera","scenario":3}}`},
		{"/v1/multilevel/simulate", `{"model":{"platform":"hera","scenario":3},"runs":5,"patterns":5,"seed":3}`},
		{"/v1/hetero/optimize", `{"topology":` + heteroTopology + `}`},
		{"/v1/hetero/simulate", `{"topology":` + heteroTopology + `,"runs":5,"patterns":5,"seed":7}`},
	} {
		for _, tail := range []string{"}", " junk", " {}", "]", "\n\t "} {
			body := req.valid + tail
			wantCode, wantBody := post(t, single.URL, req.path, body)
			gotCode, gotBody := post(t, front.URL, req.path, body)
			if gotCode != wantCode {
				t.Errorf("%s %q: router %d (%s), lone replica %d (%s)", req.path, body, gotCode, gotBody, wantCode, wantBody)
			}
			if ok := strings.TrimSpace(tail) == ""; ok != (wantCode == http.StatusOK) {
				t.Errorf("%s %q: lone replica answered %d (%s)", req.path, body, wantCode, wantBody)
			}
		}
	}
}

func post(t *testing.T, base, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read: %v", path, err)
	}
	return resp.StatusCode, string(b)
}

// TestFleetBitIdenticalToSingleNode is the acceptance criterion: an
// N-node fleet must be byte-for-byte indistinguishable from one replica
// for every request class.
func TestFleetBitIdenticalToSingleNode(t *testing.T) {
	single := httptest.NewServer(service.NewServer(service.NewEngine(service.Options{MaxConcurrent: 2})))
	defer single.Close()
	rt, _ := newFleet(t, 3, nil, -1)
	front := httptest.NewServer(rt)
	defer front.Close()

	for i, req := range fleetRequests() {
		wantCode, wantBody := post(t, single.URL, req.path, req.body)
		gotCode, gotBody := post(t, front.URL, req.path, req.body)
		if gotCode != wantCode {
			t.Fatalf("request %d %s: fleet status %d, single %d\nfleet body: %s", i, req.path, gotCode, wantCode, gotBody)
		}
		if gotBody != wantBody {
			t.Fatalf("request %d %s: fleet and single node disagree\nfleet:  %s\nsingle: %s", i, req.path, gotBody, wantBody)
		}
	}
}

// TestFleetFailoverOnReplicaDeathMidRun kills one replica partway
// through a request run: every request must still return the right
// answer (re-routed within the retry budget), and the health checker
// must evict the corpse from the ring.
func TestFleetFailoverOnReplicaDeathMidRun(t *testing.T) {
	single := httptest.NewServer(service.NewServer(service.NewEngine(service.Options{MaxConcurrent: 2})))
	defer single.Close()
	rt, reps := newFleet(t, 3, nil, -1)
	front := httptest.NewServer(rt)
	defer front.Close()

	// A plain client with no retries of its own: the router must absorb
	// the failure.
	do := func(i int, alpha float64) {
		t.Helper()
		body := fmt.Sprintf(`{"model":{"platform":"hera","scenario":1,"alpha":%g}}`, alpha)
		_, want := post(t, single.URL, "/v1/optimize", body)
		resp, err := http.Post(front.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, got)
		}
		if string(got) != want {
			t.Fatalf("request %d: wrong answer after failover\ngot:  %s\nwant: %s", i, got, want)
		}
	}
	for i := 0; i < 10; i++ {
		do(i, 0.01+float64(i)*0.01)
	}
	// Kill p2 mid-run: in-flight and future connections die at the socket.
	dead := reps[1]
	dead.ts.CloseClientConnections()
	dead.ts.Close()
	for i := 10; i < 30; i++ {
		do(i, 0.01+float64(i)*0.01)
	}
	st := rt.Stats(nil)
	if st.Peers[dead.name].Errors == 0 {
		t.Fatalf("no errors recorded against the killed peer: %+v", st.Peers)
	}
	var reroutes uint64
	for _, ps := range st.Peers {
		reroutes += ps.Failovers + ps.Retries
	}
	if reroutes == 0 {
		t.Fatalf("killed a replica mid-run but nothing failed over: %+v", st.Peers)
	}
	// The health checker notices within failAfter probes and evicts.
	peers := map[string]string{}
	for _, r := range reps {
		peers[r.name] = r.ts.URL
	}
	hc := NewHealthChecker(rt.Ring(), peers, HealthOptions{Timeout: 200 * time.Millisecond})
	hc.ProbeOnce(context.Background())
	hc.ProbeOnce(context.Background())
	if rt.Ring().Has(dead.name) {
		t.Fatalf("dead peer still in ring after two failed probes")
	}
	if rt.Ring().Len() != 2 {
		t.Fatalf("ring has %d members; want 2", rt.Ring().Len())
	}
}

// TestFleetConvergesThrough503Storm scripts a shedding owner: the
// request's owner answers 503 (with Retry-After) twice, then heals; the
// router must converge without surfacing the 503.
func TestFleetConvergesThrough503Storm(t *testing.T) {
	ctrl := NewController(nil)
	rt, _ := newFleet(t, 3, ctrl, -1)
	front := httptest.NewServer(rt)
	defer front.Close()

	body := `{"model":{"platform":"hera","scenario":2}}`
	key, err := ShardKey("/v1/optimize", []byte(body))
	if err != nil {
		t.Fatalf("ShardKey: %v", err)
	}
	owner := rt.Ring().Owners(key, 1)[0]
	ctrl.SetPlan(FaultPlan{owner + "|optimize": {Code: 503, Reqs: 2}})

	code, respBody := post(t, front.URL, "/v1/optimize", body)
	if code != http.StatusOK {
		t.Fatalf("status %d through 503 storm: %s", code, respBody)
	}
	var res service.OptimizeResponse
	if err := json.Unmarshal([]byte(respBody), &res); err != nil || res.P <= 0 {
		t.Fatalf("implausible optimize result %s (err %v)", respBody, err)
	}
	st := rt.Stats(nil)
	if st.Peers[owner].Errors == 0 {
		t.Fatalf("owner's 503s not recorded: %+v", st.Peers)
	}
}

// TestFleetDropsConnectionAndFailsOver scripts a replica dying on the
// wire (connection aborted, no response): the router must re-route and
// the client must see only the good answer.
func TestFleetDropsConnectionAndFailsOver(t *testing.T) {
	ctrl := NewController(nil)
	rt, _ := newFleet(t, 3, ctrl, -1)
	front := httptest.NewServer(rt)
	defer front.Close()

	body := `{"model":{"platform":"coastalssd","scenario":4}}`
	key, err := ShardKey("/v1/optimize", []byte(body))
	if err != nil {
		t.Fatalf("ShardKey: %v", err)
	}
	owner := rt.Ring().Owners(key, 1)[0]
	ctrl.SetPlan(FaultPlan{owner + "|optimize": {Drop: true, Reqs: 1}})

	code, respBody := post(t, front.URL, "/v1/optimize", body)
	if code != http.StatusOK {
		t.Fatalf("status %d after connection drop: %s", code, respBody)
	}
	st := rt.Stats(nil)
	var failovers uint64
	for _, ps := range st.Peers {
		failovers += ps.Failovers
	}
	if failovers == 0 {
		t.Fatalf("drop did not fail over: %+v", st.Peers)
	}
}

// TestFleetRetriesADropOnAReusedConnection scripts an owner that drops
// a request arriving on a connection the router reused, with no byte of
// a response: the router cannot tell that from an idle connection the
// owner closed, so it replays the request once on a fresh connection to
// the same owner, and one drop costs no failover. A second drop, on the
// fresh connection, fails over.
func TestFleetRetriesADropOnAReusedConnection(t *testing.T) {
	const body = `{"model":{"platform":"coastalssd","scenario":4}}`
	for _, tc := range []struct {
		drops     int
		failovers uint64
	}{{1, 0}, {2, 1}} {
		t.Run(fmt.Sprintf("drops-%d", tc.drops), func(t *testing.T) {
			ctrl := NewController(nil)
			rt, _ := newFleet(t, 3, ctrl, -1)
			front := httptest.NewServer(rt)
			defer front.Close()
			key, err := ShardKey("/v1/optimize", []byte(body))
			if err != nil {
				t.Fatalf("ShardKey: %v", err)
			}
			owner := rt.Ring().Owners(key, 1)[0]
			// The first request leaves an idle connection to the owner.
			if code, respBody := post(t, front.URL, "/v1/optimize", body); code != http.StatusOK {
				t.Fatalf("status %d: %s", code, respBody)
			}
			ctrl.SetPlan(FaultPlan{owner + "|optimize": {Drop: true, Reqs: tc.drops}})

			code, respBody := post(t, front.URL, "/v1/optimize", body)
			if code != http.StatusOK {
				t.Fatalf("status %d after %d drops: %s", code, tc.drops, respBody)
			}
			if n := ctrl.Seen(owner, "optimize"); n != 3 {
				t.Fatalf("owner saw %d optimize requests; want 3 (one before the fault, the drop and its replay)", n)
			}
			var failovers, retries, errs uint64
			for _, ps := range rt.Stats(nil).Peers {
				failovers += ps.Failovers
				retries += ps.Retries
				errs += ps.Errors
			}
			if failovers != tc.failovers || retries != 0 || errs != tc.failovers {
				t.Fatalf("%d drops cost %d failovers, %d retries and %d peer errors; want %d, 0 and %d",
					tc.drops, failovers, retries, errs, tc.failovers, tc.failovers)
			}
		})
	}
}

// TestFleetHedgesSlowOwner scripts a slow owner: the hedge to the ring
// successor must win long before the owner's injected delay expires.
func TestFleetHedgesSlowOwner(t *testing.T) {
	ctrl := NewController(nil)
	rt, _ := newFleet(t, 3, ctrl, 10*time.Millisecond)
	front := httptest.NewServer(rt)
	defer front.Close()

	body := `{"model":{"platform":"atlas","scenario":1}}`
	key, err := ShardKey("/v1/optimize", []byte(body))
	if err != nil {
		t.Fatalf("ShardKey: %v", err)
	}
	owner := rt.Ring().Owners(key, 1)[0]
	ctrl.SetPlan(FaultPlan{owner + "|optimize": {DelayMS: 2000, Reqs: 1}})

	start := time.Now()
	code, respBody := post(t, front.URL, "/v1/optimize", body)
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, respBody)
	}
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("hedge did not rescue the request: took %s against a 2 s owner delay", elapsed)
	}
	st := rt.Stats(nil)
	var hedges uint64
	for _, ps := range st.Peers {
		hedges += ps.Hedges
	}
	if hedges == 0 {
		t.Fatalf("slow owner produced no hedges: %+v", st.Peers)
	}
}

// TestFleetSweepMidStreamFailover kills the owner after 3 NDJSON rows:
// the router must resume the remaining axis on the successor and the
// spliced stream must be byte-identical to a single node's. The axes
// with an infeasible cell (λ = 1e300) end in that cell's error line,
// whether the successor meets the cell mid-stream or as its first cell.
func TestFleetSweepMidStreamFailover(t *testing.T) {
	for _, tc := range []struct {
		name    string
		values  string
		rows    int // rows in the spliced stream
		resumed int // cells the successor solves after the splice
	}{
		{"alpha", `"axis":"alpha","values":[0.01,0.02,0.05,0.1,0.15,0.2,0.3,0.4]`, 8, 5},
		{"failing-cell-after-the-drop", `"axis":"lambda","values":[1e-10,2e-10,5e-10,1e-9,2e-9,1e300,1e-8,2e-8]`, 5, 2},
		{"failing-cell-resumes-the-axis", `"axis":"lambda","values":[1e-10,2e-10,5e-10,1e300,1e-9,2e-9,1e-8,2e-8]`, 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			single := httptest.NewServer(service.NewServer(service.NewEngine(service.Options{MaxConcurrent: 2})))
			defer single.Close()
			ctrl := NewController(nil)
			rt, reps := newFleet(t, 3, ctrl, -1)
			front := httptest.NewServer(rt)
			defer front.Close()

			body := `{"model":{"platform":"hera","scenario":1},` + tc.values + `,"cold":true}`
			key, err := ShardKey("/v1/sweep", []byte(body))
			if err != nil {
				t.Fatalf("ShardKey: %v", err)
			}
			owners := rt.Ring().Owners(key, 2)
			owner, successor := owners[0], owners[1]
			ctrl.SetPlan(FaultPlan{owner + "|sweep": {Drop: true, DropAfterRows: 3, Reqs: 1}})

			_, want := post(t, single.URL, "/v1/sweep", body)
			code, got := post(t, front.URL, "/v1/sweep", body)
			if code != http.StatusOK {
				t.Fatalf("sweep status %d: %s", code, got)
			}
			if got != want {
				t.Fatalf("spliced sweep differs from single node\ngot:  %s\nwant: %s", got, want)
			}
			lines := strings.Split(strings.TrimSpace(got), "\n")
			rows := 0
			for _, l := range lines {
				if strings.HasPrefix(l, rowPrefix) {
					rows++
				}
			}
			if rows != tc.rows {
				t.Fatalf("spliced sweep has %d rows; want %d", rows, tc.rows)
			}
			if rows < 8 && !strings.Contains(lines[len(lines)-1], `sweep cell lambda=1e+300: `) {
				t.Fatalf("short stream does not end in the infeasible cell's error line: %s", lines[len(lines)-1])
			}
			// The splice is at row 3: the successor solved only the cells
			// after the owner's three rows, each one cold optimize entry.
			if n := byName(reps, successor).srv.Engine().Stats().OptimizeCache.Entries; n != tc.resumed {
				t.Fatalf("successor cached %d cells; want the %d after the splice at row 3", n, tc.resumed)
			}
			st := rt.Stats(nil)
			if st.Peers[owner].Errors == 0 {
				t.Fatalf("mid-stream death not recorded against owner: %+v", st.Peers)
			}
			if st.Peers[successor].Errors != 0 {
				t.Fatalf("the successor's answer was charged as an error: %+v", st.Peers)
			}
		})
	}
}

// TestFleetRelaysADeterministicCellError: a sweep cell that fails on
// every replica alike is the stream's answer, not a replica failure. The
// router relays the owner's rows and the cell's error line after one
// forward, charges no peer an error, and does not fail over.
func TestFleetRelaysADeterministicCellError(t *testing.T) {
	rt, _ := newFleet(t, 3, nil, -1)
	front := httptest.NewServer(rt)
	defer front.Close()

	code, got := post(t, front.URL, "/v1/sweep", infeasibleSweep)
	if code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", code, got)
	}
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 3 || !strings.Contains(lines[2], `"service: sweep cell lambda=1e+300: `) {
		t.Fatalf("want two rows and the error line of cell lambda=1e+300, got:\n%s", got)
	}
	var forwards, errs, reroutes uint64
	for _, ps := range rt.Stats(nil).Peers {
		forwards += ps.Forwards
		errs += ps.Errors
		reroutes += ps.Failovers + ps.Retries
	}
	if forwards != 1 || errs != 0 || reroutes != 0 {
		t.Fatalf("%d forwards, %d peer errors, %d re-routes; want 1, 0, 0", forwards, errs, reroutes)
	}
}

// TestRelayRowsFlushesWhenItsInputIsDrained: a 16-row stream that sits
// wholly in the relay's read buffer reaches the client in one flush, not
// one per row.
func TestRelayRowsFlushesWhenItsInputIsDrained(t *testing.T) {
	row, err := json.Marshal(service.SweepRow{X: 1e-10, T: 6000, P: 512, Overhead: 0.1, Method: "numerical", Evals: 80})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 16
	resp := &http.Response{Body: io.NopCloser(strings.NewReader(strings.Repeat(string(row)+"\n", rows)))}
	emitted, flushes := 0, 0
	terminated, err := (&Router{}).relayRows(resp, rows, &emitted, func(string) {}, func() { flushes++ })
	if err != nil || terminated || emitted != rows {
		t.Fatalf("relayRows = (terminated %t, %v) after %d rows, want a full stream of %d", terminated, err, emitted, rows)
	}
	if flushes != 1 {
		t.Fatalf("%d flushes for a stream already in the buffer, want 1", flushes)
	}
}

// TestRelayRowsEndsOnlyAtATerminationNotice feeds relayRows a sweep row
// as the service encodes it, a positional error line and a drain notice:
// the row and the positional line are relayed, the notice ends the
// stream unrelayed, and nothing after it is read.
func TestRelayRowsEndsOnlyAtATerminationNotice(t *testing.T) {
	row, err := json.Marshal(service.SweepRow{X: 1e-10, T: 6000, P: 512, Overhead: 0.1, Method: "numerical", Evals: 80})
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{
		string(row) + "\n",
		`{"error":"cell 1 not representable in JSON: json: unsupported value: +Inf"}` + "\n",
		`{"error":"service: server draining, stream terminated early"}` + "\n",
		string(row) + "\n",
	}
	resp := &http.Response{Body: io.NopCloser(strings.NewReader(strings.Join(lines, "")))}
	var got []string
	emitted := 0
	terminated, err := (&Router{}).relayRows(resp, len(lines), &emitted, func(l string) { got = append(got, l) }, func() {})
	if err != nil || !terminated {
		t.Fatalf("relayRows = (terminated %t, %v), want a termination", terminated, err)
	}
	if emitted != 2 || len(got) != 2 || got[0] != lines[0] || got[1] != lines[1] {
		t.Fatalf("relayed %d lines %q, want the row and the positional line", emitted, got)
	}
}

// TestFleetWarmFillOnRejoin walks a replica through death and rebirth:
// while it is out, its neighbour serves (and caches) its keyspace; on
// rejoin the checker warm-fills it from that neighbour, so its first
// request back is a cache hit with bit-identical numbers.
func TestFleetWarmFillOnRejoin(t *testing.T) {
	ctrl := NewController(nil)
	rt, reps := newFleet(t, 2, ctrl, -1)
	front := httptest.NewServer(rt)
	defer front.Close()

	peers := map[string]string{}
	for _, r := range reps {
		peers[r.name] = r.ts.URL
	}
	hc := NewHealthChecker(rt.Ring(), peers, HealthOptions{Timeout: 200 * time.Millisecond})

	// Find a model owned by p2 so its eviction actually moves traffic.
	var body, key string
	for alpha := 0.01; alpha < 0.5; alpha += 0.01 {
		b := fmt.Sprintf(`{"model":{"platform":"hera","scenario":6,"alpha":%g}}`, alpha)
		k, err := ShardKey("/v1/optimize", []byte(b))
		if err != nil {
			t.Fatalf("ShardKey: %v", err)
		}
		if rt.Ring().Owners(k, 1)[0] == "p2" {
			body, key = b, k
			break
		}
	}
	if body == "" {
		t.Fatal("no test model owned by p2; ring is degenerate")
	}

	// p2 flunks two probes and is evicted.
	ctrl.SetPlan(FaultPlan{"p2|readyz": {Code: 503, Reqs: 2}})
	hc.ProbeOnce(context.Background())
	hc.ProbeOnce(context.Background())
	if rt.Ring().Has("p2") {
		t.Fatal("p2 still in ring after failed probes")
	}

	// With p2 out, p1 owns (and caches) the key.
	code, firstBody := post(t, front.URL, "/v1/optimize", body)
	if code != http.StatusOK {
		t.Fatalf("optimize while p2 down: status %d: %s", code, firstBody)
	}
	if got := rt.Ring().Owners(key, 1)[0]; got != "p1" {
		t.Fatalf("key owned by %q while p2 is out; want p1", got)
	}

	// p2 heals (fault budget spent): two passing probes readmit it, warm-
	// filled from its neighbour first.
	hc.ProbeOnce(context.Background())
	hc.ProbeOnce(context.Background())
	if !rt.Ring().Has("p2") {
		t.Fatal("p2 not readmitted after passing probes")
	}
	p2 := byName(reps, "p2")
	if fills := p2.srv.Engine().Stats().CacheFills; fills == 0 {
		t.Fatal("p2 accepted no warm-fill entries")
	}

	// p2's first request back is served from the transferred cache, with
	// numbers bit-identical to what p1 solved.
	code, secondBody := post(t, front.URL, "/v1/optimize", body)
	if code != http.StatusOK {
		t.Fatalf("optimize after rejoin: status %d: %s", code, secondBody)
	}
	var first, second service.OptimizeResponse
	if err := json.Unmarshal([]byte(firstBody), &first); err != nil {
		t.Fatalf("first response: %v", err)
	}
	if err := json.Unmarshal([]byte(secondBody), &second); err != nil {
		t.Fatalf("second response: %v", err)
	}
	if !second.Cached {
		t.Fatalf("rejoined replica solved cold (cached=false): %s", secondBody)
	}
	if second.T != first.T || second.P != first.P || second.Overhead != first.Overhead {
		t.Fatalf("warm-filled answer differs\nfirst:  %s\nsecond: %s", firstBody, secondBody)
	}
	if p2.srv.Engine().Stats().OptimizeCalls != 1 {
		// The one call is the routed request itself; a fill must never
		// masquerade as a solve.
		t.Fatalf("p2 optimize_calls = %d; want 1 (served from fill, not solved)",
			p2.srv.Engine().Stats().OptimizeCalls)
	}
}

// TestHealthCheckerBoundsAHungWarmFill: a donor whose /readyz answers
// but whose /v1/cache/hot never does must not stall membership. The
// fill runs under a deadline derived from the probe timeout, so both
// rounds return promptly and the joiner is admitted cold.
func TestHealthCheckerBoundsAHungWarmFill(t *testing.T) {
	release := make(chan struct{})
	donor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cache/hot" {
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer donor.Close()
	defer close(release) // before Close, which waits for the hung handler
	joinerEngine := service.NewEngine(service.Options{})
	joiner := httptest.NewServer(service.NewServer(joinerEngine))
	defer joiner.Close()

	ring := NewRing()
	ring.Add("donor")
	const timeout = 200 * time.Millisecond
	hc := NewHealthChecker(ring, map[string]string{"donor": donor.URL, "joiner": joiner.URL},
		HealthOptions{Timeout: timeout})
	start := time.Now()
	rounds := make(chan struct{})
	go func() {
		defer close(rounds)
		hc.ProbeOnce(context.Background())
		hc.ProbeOnce(context.Background()) // second pass: join, after the fill
	}()
	select {
	case <-rounds:
	case <-time.After(25 * timeout):
		t.Fatal("probe rounds still blocked behind a hung warm-fill donor")
	}
	if elapsed := time.Since(start); elapsed > 10*timeout {
		t.Errorf("two probe rounds took %v; want within 10× the %v probe timeout", elapsed, timeout)
	}
	if !ring.Has("joiner") {
		t.Fatal("joiner not admitted after its warm-fill timed out")
	}
	if fills := joinerEngine.Stats().CacheFills; fills != 0 {
		t.Fatalf("joiner accepted %d entries from a fill that timed out", fills)
	}
}

// TestRetryDelayIsPerKey: the failover backoff is jittered by the ring
// hash of the request's shard key, so requests that fail together
// spread out instead of retrying in lockstep, and one key always gets
// the same schedule.
func TestRetryDelayIsPerKey(t *testing.T) {
	rt, err := NewRouter(RouterOptions{Peers: map[string]string{"p1": "http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	const a, b = `m1|hera|a`, `m1|hera|b`
	for attempt := 1; attempt <= 3; attempt++ {
		da := rt.retryDelay(a, attempt, 0)
		if want := backoff.Delay(50*time.Millisecond, attempt, ringHash(a)); da != want {
			t.Errorf("attempt %d: delay %v; want %v, the schedule seeded by the key's ring hash", attempt, da, want)
		}
		if again := rt.retryDelay(a, attempt, 0); again != da {
			t.Errorf("attempt %d: same key gave %v then %v", attempt, da, again)
		}
		if db := rt.retryDelay(b, attempt, 0); db == da {
			t.Errorf("attempt %d: keys %q and %q share the delay %v", attempt, a, b, da)
		}
	}
	// A replica's Retry-After floors the wait; MaxDelay (default 2 s) caps it.
	if d := rt.retryDelay(a, 1, time.Second); d != time.Second {
		t.Errorf("Retry-After floor: delay %v; want 1s", d)
	}
	if d := rt.retryDelay(a, 1, time.Minute); d != 2*time.Second {
		t.Errorf("MaxDelay cap: delay %v; want 2s", d)
	}
}

// TestRouterShedsAtInFlightCap pins the router's own load-shedding
// contract: past its in-flight cap it answers 503 + Retry-After
// immediately instead of queueing.
func TestRouterShedsAtInFlightCap(t *testing.T) {
	rt, _ := newFleet(t, 1, nil, -1)
	rt.inflight = make(chan struct{}, 1)
	rt.inflight <- struct{}{} // occupy the only slot
	front := httptest.NewServer(rt)
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/optimize", "application/json",
		strings.NewReader(`{"model":{"platform":"hera"}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated router answered %d; want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if rt.shed.Load() != 1 {
		t.Fatalf("shed counter = %d; want 1", rt.shed.Load())
	}
}

// TestRouterStatsExposesPerShardCaches checks the fleet stats view:
// per-peer forward counters plus each replica's own cache hit/miss
// numbers fetched live.
func TestRouterStatsExposesPerShardCaches(t *testing.T) {
	rt, _ := newFleet(t, 2, nil, -1)
	front := httptest.NewServer(rt)
	defer front.Close()

	body := `{"model":{"platform":"hera","scenario":1}}`
	post(t, front.URL, "/v1/optimize", body)
	post(t, front.URL, "/v1/optimize", body) // second hit is cached

	resp, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var st RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if len(st.Ring) != 2 || len(st.Peers) != 2 {
		t.Fatalf("stats ring/peers = %v / %d entries; want 2/2", st.Ring, len(st.Peers))
	}
	var forwards, optCalls, hits uint64
	for _, ps := range st.Peers {
		forwards += ps.Forwards
		if ps.Engine == nil {
			t.Fatalf("peer engine stats missing: %+v", ps)
		}
		optCalls += ps.Engine.OptimizeCalls
		hits += ps.Engine.OptimizeCache.Hits
	}
	if forwards < 2 {
		t.Fatalf("forwards = %d; want ≥ 2", forwards)
	}
	if optCalls != 2 {
		t.Fatalf("fleet-wide optimize_calls = %d; want 2", optCalls)
	}
	if hits == 0 {
		t.Fatal("repeated request produced no cache hit on its shard")
	}
}

// TestRouterStatsBytesStableAcrossCalls pins the mapiter fix in
// Router.Stats and Ring.Peers: with traffic quiesced, /v1/stats must
// serialize to the same bytes on every call — the ring membership slice
// and the per-peer merge may not leak map iteration order.
func TestRouterStatsBytesStableAcrossCalls(t *testing.T) {
	rt, _ := newFleet(t, 3, nil, -1)
	front := httptest.NewServer(rt)
	defer front.Close()

	body := `{"model":{"platform":"hera","scenario":1}}`
	post(t, front.URL, "/v1/optimize", body)

	fetch := func() []byte {
		t.Helper()
		resp, err := http.Get(front.URL + "/v1/stats")
		if err != nil {
			t.Fatalf("GET /v1/stats: %v", err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read stats body: %v", err)
		}
		return b
	}
	first := fetch()
	for i := 0; i < 5; i++ {
		if got := fetch(); !bytes.Equal(got, first) {
			t.Fatalf("stats bytes drifted on call %d:\nfirst: %s\n  got: %s", i+2, first, got)
		}
	}
}
