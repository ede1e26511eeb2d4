package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"amdahlyd/internal/fleet"
	"amdahlyd/internal/service"
)

// numReplicas is the fleet size: three replicas behind one router, the
// smallest fleet where every key has a distinct owner and successor.
const numReplicas = 3

// listen serves h on a loopback port with the timeouts cmd/amdahl-serve
// uses.
func listen(h http.Handler) *httptest.Server {
	s := httptest.NewUnstartedServer(h)
	s.Config.ReadHeaderTimeout = 10 * time.Second
	s.Config.IdleTimeout = 2 * time.Minute
	s.Start()
	return s
}

// fleetUnderTest is the system under test, wired as cmd/amdahl-serve
// wires it (without the request log): numReplicas replicas running
// service.NewServer(service.NewEngine(service.Options{})) behind
// fleet.NewRouter with the -router defaults and a fleet.HealthChecker.
// With a recorder, the router, its forwarding client and every replica
// are wrapped to record spans.
type fleetUnderTest struct {
	replicas []*service.Server
	router   *fleet.Router
	checker  *fleet.HealthChecker
	servers  []*httptest.Server
	url      string
}

func startFleet(rec *recorder) (*fleetUnderTest, error) {
	f := &fleetUnderTest{}
	peers := make(map[string]string, numReplicas)
	for i := 1; i <= numReplicas; i++ {
		srv := service.NewServer(service.NewEngine(service.Options{}))
		var h http.Handler = srv
		if rec != nil {
			h = rec.wrapHandler("service.server", h)
		}
		s := listen(h)
		f.servers = append(f.servers, s)
		f.replicas = append(f.replicas, srv)
		peers[fmt.Sprintf("p%d", i)] = s.URL
	}
	opts := fleet.RouterOptions{Peers: peers, HedgeAfter: 150 * time.Millisecond}
	if rec != nil {
		opts.Client = &http.Client{Transport: &tracingTransport{rec: rec, base: http.DefaultTransport}}
	}
	rt, err := fleet.NewRouter(opts)
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	f.checker = fleet.NewHealthChecker(rt.Ring(), peers, fleet.HealthOptions{Interval: 500 * time.Millisecond})
	f.checker.Start()
	var h http.Handler = rt
	if rec != nil {
		h = rec.wrapHandler("fleet.router", rt)
	}
	front := listen(h)
	f.servers = append(f.servers, front)
	f.url = front.URL
	return f, nil
}

// close stops the health checker and every listener, and waits for them
// and their in-flight requests.
func (f *fleetUnderTest) close() {
	if f.checker != nil {
		f.checker.Stop()
	}
	for i := len(f.servers) - 1; i >= 0; i-- {
		f.servers[i].Close()
	}
}

// fleetCounters is a snapshot of the counters the per-layer metrics
// difference across a timed window.
type fleetCounters struct {
	forwards, hedges, failovers, shed uint64
	peerForwards                      []uint64
	dedup, saturated, evictions       uint64
	caches                            [numCaches]service.CacheStats
}

// The engine caches reported per layer, in metric-name order.
const numCaches = 5

var cacheNames = [numCaches]string{"frozen", "optimize", "simulate", "multilevel_optimize", "hetero_optimize"}

// counters snapshots Router.Stats(nil) and Engine.Stats() summed over the
// replicas. The other engine caches (multilevel/hetero simulate) see no
// traffic from these workloads but still count toward evictions.
func (f *fleetUnderTest) counters() fleetCounters {
	var c fleetCounters
	rs := f.router.Stats(nil)
	c.shed = rs.Shed
	for _, name := range sortedKeys(rs.Peers) {
		p := rs.Peers[name]
		c.forwards += p.Forwards
		c.hedges += p.Hedges
		c.failovers += p.Failovers
		c.peerForwards = append(c.peerForwards, p.Forwards)
	}
	for _, srv := range f.replicas {
		st := srv.Engine().Stats()
		c.dedup += st.Deduplicated
		c.saturated += st.Saturated
		for i, cs := range []service.CacheStats{st.FrozenCache, st.OptimizeCache, st.SimulateCache,
			st.MultilevelOptimizeCache, st.HeteroOptimizeCache} {
			c.caches[i].Hits += cs.Hits
			c.caches[i].Misses += cs.Misses
		}
		for _, cs := range []service.CacheStats{st.FrozenCache, st.OptimizeCache, st.SimulateCache,
			st.MultilevelOptimizeCache, st.MultilevelSimulateCache, st.HeteroOptimizeCache, st.HeteroSimulateCache} {
			c.evictions += cs.Evictions
		}
	}
	return c
}

// queueSampler polls every replica's scheduler queue depth and keeps the
// maximum it saw.
type queueSampler struct {
	stop chan struct{}
	done chan struct{}
	max  int64
}

func (f *fleetUnderTest) sampleQueues(every time.Duration) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-t.C:
				for _, srv := range f.replicas {
					q.max = max(q.max, srv.Engine().Stats().Queued)
				}
			}
		}
	}()
	return q
}

// end stops the sampler and returns the deepest queue it saw.
func (q *queueSampler) end() int64 {
	close(q.stop)
	<-q.done
	return q.max
}

// reqRecord is one completed request of a closed loop.
type reqRecord struct {
	latMS float64
	trace uint64 // client span trace ID (traced phases only)
	body  int32  // index of the body in the workload's body table
	cls   class
	at    time.Duration // completion time on the run's load clock
}

// callerOut is one caller's share of a closed-loop window.
type callerOut struct {
	reqs      []reqRecord
	attempted int
	failed    int
	firstErr  error
	kept      map[int][]byte // body index → reply, for the correctness gate
	next      int            // stream position after the window
}

// loadSpec describes one closed-loop window: caller k sends
// body(k, pos) for pos = start[k], start[k]+1, … until the window ends.
type loadSpec struct {
	url     string
	clients []*http.Client // one per caller, each with one connection
	body    func(k, pos int) (int, *body)
	check   func(idx int, b *body, status int, reply []byte) error
	keep    func(idx int) bool // keep this body's reply for the gate
	rec     *recorder          // nil: untraced
	// perSecond sizes each caller's record buffer up front, so the
	// buffer's growth (and the process's peak RSS) does not follow the
	// throughput a run happens to reach.
	perSecond int
}

// closedLoop runs len(start) callers for dur. Each caller owns one
// connection and sends its next request only after the previous reply's
// last byte has arrived. It returns the callers' records, each request
// stamped with its completion time since the window began, and the
// window's length.
func closedLoop(ls loadSpec, start []int, dur time.Duration) ([]callerOut, time.Duration) {
	outs := make([]callerOut, len(start))
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := range start {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			client := ls.clients[k]
			out := &outs[k]
			out.kept = map[int][]byte{}
			out.reqs = make([]reqRecord, 0, int(float64(ls.perSecond)*dur.Seconds()))
			pos := start[k]
			for ; time.Since(t0) < dur; pos++ {
				idx, b := ls.body(k, pos)
				status, reply, lat, trace, err := send(client, ls.url, b, ls.rec)
				out.attempted++
				if err == nil {
					err = ls.check(idx, b, status, reply)
				}
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = fmt.Errorf("%s request (body %d): %w", classNames[b.cls], idx, err)
					}
				}
				if ls.keep != nil && ls.keep(idx) {
					out.kept[idx] = reply
				}
				out.reqs = append(out.reqs, reqRecord{latMS: float64(lat) / 1e6, trace: trace, body: int32(idx),
					cls: b.cls, at: time.Since(t0)})
			}
			out.next = pos
		}(k)
	}
	wg.Wait()
	return outs, time.Since(t0)
}

// send posts one body and reads the reply to its last byte. With a
// recorder it records the "client" span and stamps it on the request.
func send(client *http.Client, url string, b *body, rec *recorder) (status int, reply []byte, lat time.Duration, trace uint64, err error) {
	req, err := http.NewRequest(http.MethodPost, url+classPaths[b.cls], bytes.NewReader(b.data))
	if err != nil {
		return 0, nil, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	var s span
	if rec != nil {
		s = rec.start("client", spanRef{})
		req.Header.Set(spanHeader, s.ref().header())
		trace = s.trace
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err == nil {
		reply, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	lat = time.Since(t0)
	if rec != nil {
		rec.finish(s)
	}
	return status, reply, lat, trace, err
}

// checkShape accepts a 200 whose body is one JSON object, or for a
// sweep exactly b.rows rows and no error line.
func checkShape(b *body, status int, reply []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(reply))
	}
	if b.rows == 0 {
		if !bytes.HasPrefix(reply, []byte("{")) {
			return fmt.Errorf("reply is not a JSON object")
		}
		return nil
	}
	lines := bytes.Split(bytes.TrimSuffix(reply, []byte("\n")), []byte("\n"))
	if len(lines) != b.rows {
		return fmt.Errorf("sweep streamed %d lines, want %d rows", len(lines), b.rows)
	}
	for _, l := range lines {
		if !bytes.HasPrefix(l, []byte(`{"x":`)) {
			return fmt.Errorf("sweep error line: %s", l)
		}
	}
	return nil
}

// normalize clears the cache-provenance flags, the only bytes a cache hit
// may change in a reply.
func normalize(reply []byte) []byte {
	return bytes.ReplaceAll(reply, []byte(`"cached":true`), []byte(`"cached":false`))
}

// askAll sends every body once through url with the given number of
// parallel callers and returns the replies, failing on the first bad one.
func askAll(url string, bodies []body, callers int) ([][]byte, error) {
	replies := make([][]byte, len(bodies))
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			for i := k; i < len(bodies); i += callers {
				status, reply, _, _, err := send(client, url, &bodies[i], nil)
				if err == nil {
					err = checkShape(&bodies[i], status, reply)
				}
				if err != nil {
					errs[k] = fmt.Errorf("%s body %d: %w", classNames[bodies[i].cls], i, err)
					return
				}
				replies[i] = reply
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return replies, nil
}

// Warm sweep rows may differ from a fresh chain within the SweepSolver's
// documented refinement tolerance (the optimize sweep property tests):
// overhead within 1e-8, T* and P* within 1e-4, relative.
const (
	sweepTolH  = 1e-8
	sweepTolTP = 1e-4
)

// gate asks each (body, reply) pair of a serving run again of a fresh
// single in-process replica. Unary replies must match byte for byte
// apart from the cache flags; sweep rows, which come from the warm-start
// chains, must agree within the sweep tolerance. It returns the number
// of mismatches and a description of the first.
func gate(bodies []*body, replies [][]byte) (int, error) {
	srv := service.NewServer(service.NewEngine(service.Options{}))
	bad := 0
	var first error
	for i, b := range bodies {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, classPaths[b.cls], bytes.NewReader(b.data))
		srv.ServeHTTP(w, req.WithContext(context.Background()))
		var err error
		switch {
		case w.Code != http.StatusOK:
			err = fmt.Errorf("fresh replica answered %d: %s", w.Code, bytes.TrimSpace(w.Body.Bytes()))
		case b.rows > 0:
			err = sweepAgrees(replies[i], w.Body.Bytes())
		case !bytes.Equal(normalize(replies[i]), normalize(w.Body.Bytes())):
			err = fmt.Errorf("reply differs from a fresh replica:\n  fleet: %s\n  fresh: %s",
				bytes.TrimSpace(replies[i]), bytes.TrimSpace(w.Body.Bytes()))
		}
		if err != nil {
			bad++
			if first == nil {
				first = fmt.Errorf("%s %s: %w", classNames[b.cls], b.data, err)
			}
		}
	}
	return bad, first
}

func sweepAgrees(got, want []byte) error {
	g, err := sweepRows(got)
	if err != nil {
		return err
	}
	w, err := sweepRows(want)
	if err != nil {
		return err
	}
	if len(g) != len(w) {
		return fmt.Errorf("%d rows, fresh replica streamed %d", len(g), len(w))
	}
	for i := range g {
		a, b := g[i], w[i]
		if a.X != b.X || a.K != b.K || a.AtPBound != b.AtPBound ||
			relDiff(a.Overhead, b.Overhead) > sweepTolH ||
			relDiff(a.T, b.T) > sweepTolTP || relDiff(a.P, b.P) > sweepTolTP {
			return fmt.Errorf("row %d outside the sweep tolerance: %+v vs fresh %+v", i, a, b)
		}
	}
	return nil
}

func sweepRows(reply []byte) ([]service.SweepRow, error) {
	var rows []service.SweepRow
	dec := json.NewDecoder(bytes.NewReader(reply))
	for dec.More() {
		var r service.SweepRow
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("decoding a sweep row: %w", err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}
