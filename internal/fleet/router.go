package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amdahlyd/internal/backoff"
	"amdahlyd/internal/service"
)

// Router is the fleet's front door: it computes each request's shard key
// (the same canonical model key the replicas cache under), looks up the
// owner on the consistent-hash ring, and forwards. Around that one-line
// idea sits the robustness machinery:
//
//   - hedged requests — if the owner is slow, a duplicate goes to the
//     next ring successor and the first good answer wins (safe because
//     every response is a pure function of the request);
//   - failover — transport errors and transient statuses (503/502/504)
//     re-route to the successor with bounded, jittered backoff;
//   - mid-stream failover — a sweep replica dying after k rows is
//     replaced by re-issuing the remaining axis (Values[k:]) to the
//     successor and splicing the streams at the row boundary;
//   - load shedding — the router bounds its own in-flight set and sheds
//     with 503 + Retry-After rather than queueing unboundedly, and it
//     honours a replica's Retry-After as a backoff floor, so saturation
//     produces a calm convergence instead of a retry storm.
//
// The router holds no model state: bit-identity with a single node falls
// out of forwarding verbatim bodies to replicas running the same engine.
type Router struct {
	opts RouterOptions
	ring *Ring
	mux  *http.ServeMux

	// inflight bounds concurrently forwarded requests at maxInFlight.
	inflight chan struct{}
	shed     atomic.Uint64

	// peers is built once in NewRouter and never changes, so it is read
	// without a lock; the counters in it are atomic.
	peers map[string]*peerCounters

	// do sends one request to a peer: RouterOptions.Client's Do, or the
	// router's own forwarder.
	do func(*http.Request) (*http.Response, error)
}

// RouterOptions configures a Router. Peers is required; everything else
// has serviceable defaults.
type RouterOptions struct {
	// Peers maps peer name → base URL (e.g. "http://10.0.0.7:8080").
	Peers map[string]string
	// HedgeAfter is how long the owner may sit on a unary request before
	// a duplicate is sent to its ring successor (default 150 ms; negative
	// disables hedging). Streams are never hedged — a slow first row is
	// legitimate on a long axis.
	HedgeAfter time.Duration
	// RetryBase is the first failover backoff delay (default 50 ms),
	// growing exponentially with deterministic splitmix64 jitter.
	RetryBase time.Duration
	// MaxDelay caps any single backoff wait, including a replica's
	// Retry-After (default 2 s).
	MaxDelay time.Duration
	// Client is the forwarding HTTP client (default: a forwarder of the
	// router's own, which keeps up to maxInFlight idle connections per
	// peer and runs each forward on the calling goroutine).
	Client *http.Client
}

const (
	// maxAttempts bounds total sends per request, hedges included.
	maxAttempts = 4
	// maxInFlight bounds concurrently forwarded requests; past it the
	// router sheds with 503 + Retry-After.
	maxInFlight = 256
)

func (o RouterOptions) hedgeAfter() time.Duration {
	if o.HedgeAfter < 0 {
		return 0
	}
	if o.HedgeAfter == 0 {
		return 150 * time.Millisecond
	}
	return o.HedgeAfter
}

func (o RouterOptions) retryBase() time.Duration {
	if o.RetryBase > 0 {
		return o.RetryBase
	}
	return 50 * time.Millisecond
}

func (o RouterOptions) maxDelay() time.Duration {
	if o.MaxDelay > 0 {
		return o.MaxDelay
	}
	return 2 * time.Second
}

// peerCounters is the per-peer forwarding ledger behind /v1/stats.
type peerCounters struct {
	forwards  atomic.Uint64 // requests sent to this peer (hedges and retries included)
	hedges    atomic.Uint64 // duplicate sends because the owner was slow
	failovers atomic.Uint64 // re-routes to this peer after another peer failed
	retries   atomic.Uint64 // re-sends to this same peer after it failed
	errors    atomic.Uint64 // transport errors and transient statuses from this peer
}

// NewRouter builds a router over the given peers; all peers start in the
// ring (a HealthChecker prunes the sick ones). A peer's base URL must be
// http: replicas serve no TLS.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Peers) == 0 {
		return nil, errors.New("fleet: router needs at least one peer")
	}
	ring := NewRing()
	peers := make(map[string]*peerCounters, len(opts.Peers))
	names := make([]string, 0, len(opts.Peers))
	for name := range opts.Peers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := opts.Peers[name]
		u, err := url.Parse(base)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("fleet: peer %q: base URL %q is not absolute", name, base)
		}
		if u.Scheme != "http" {
			return nil, fmt.Errorf("fleet: peer %q: base URL %q is not http", name, base)
		}
		opts.Peers[name] = strings.TrimRight(base, "/")
		ring.Add(name)
		peers[name] = &peerCounters{}
	}
	rt := &Router{opts: opts, ring: ring, peers: peers, inflight: make(chan struct{}, maxInFlight)}
	if opts.Client != nil {
		rt.do = opts.Client.Do
	} else {
		rt.do = newForwarder().RoundTrip
	}
	rt.mux = http.NewServeMux()
	for _, p := range []string{
		"/v1/evaluate", "/v1/optimize", "/v1/simulate",
		"/v1/multilevel/optimize", "/v1/multilevel/simulate",
		"/v1/hetero/optimize", "/v1/hetero/simulate",
	} {
		rt.mux.HandleFunc("POST "+p, rt.handleUnary)
	}
	rt.mux.HandleFunc("POST /v1/sweep", rt.handleSweep)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	rt.mux.HandleFunc("GET /readyz", rt.handleReady)
	return rt, nil
}

// Ring exposes the membership ring (the health checker drives it).
func (rt *Router) Ring() *Ring { return rt.ring }

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// ledger returns the peer's counters; a peer the router was not built
// with counts into a throwaway ledger.
func (rt *Router) ledger(peer string) *peerCounters {
	if c, ok := rt.peers[peer]; ok {
		return c
	}
	return new(peerCounters)
}

// admit claims an in-flight slot, or reports the router saturated.
func (rt *Router) admit() bool {
	select {
	case rt.inflight <- struct{}{}:
		return true
	default:
		rt.shed.Add(1)
		return false
	}
}

func (rt *Router) done() { <-rt.inflight }

// retryDelay is the wait before the send that follows the given failed
// attempt: the backoff schedule, floored at a replica's Retry-After and
// capped at MaxDelay. The jitter is seeded by the ring hash of the
// request's shard key, so the requests a dead replica held retry at
// spread-out times instead of in lockstep, while one key keeps one
// reproducible schedule.
func (rt *Router) retryDelay(key string, attempt int, floor time.Duration) time.Duration {
	delay := max(backoff.Delay(rt.opts.retryBase(), attempt, ringHash(key)), floor)
	return min(delay, rt.opts.maxDelay())
}

// maxRouterBody mirrors the replica's request bound.
const maxRouterBody = 1 << 20

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRouterBody))
	if err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	return body, nil
}

// ShardKey computes a request's placement key: the canonical cache key
// of the model (or topology) it concerns, built by the same code path
// the replicas key their caches with. Routing by model key means every
// request touching the same model lands on the same replica, so its
// compiled kernels and result caches concentrate instead of being
// diluted N ways. Sweeps shard by their base model: the whole axis is
// one warm-start chain on one replica, and repeated sweeps of the same
// base (different values) reuse that replica's per-cell cache.
func ShardKey(path string, body []byte) (string, error) {
	switch RequestClass(path) {
	case "evaluate", "optimize", "simulate", "multilevel":
		// Every model endpoint carries its model in the same spot.
		var q struct {
			Model service.ModelSpec `json:"model"`
		}
		if err := json.Unmarshal(body, &q); err != nil {
			return "", fmt.Errorf("bad request body: %w", err)
		}
		return modelKey(q.Model)
	case "hetero":
		var q struct {
			Topology service.TopologySpec `json:"topology"`
		}
		if err := json.Unmarshal(body, &q); err != nil {
			return "", fmt.Errorf("bad request body: %w", err)
		}
		return topologyKey(q.Topology)
	case "sweep":
		var q service.SweepRequest
		if err := json.Unmarshal(body, &q); err != nil {
			return "", fmt.Errorf("bad request body: %w", err)
		}
		return sweepKey(q)
	}
	return "", fmt.Errorf("fleet: no shard key for %q", path)
}

// sweepKey is a decoded sweep's shard key: its topology's for a
// heterogeneous sweep, its base model's otherwise.
func sweepKey(q service.SweepRequest) (string, error) {
	if q.Hetero != nil {
		return topologyKey(q.Hetero.Topology)
	}
	return modelKey(q.Model)
}

// RequestClass maps an URL path onto its request class: the first path
// segment under /v1/ ("optimize", "sweep", "multilevel", "cache", …),
// or the bare first segment for the health endpoints. ShardKey
// dispatches on it, and the fault-injection tests key their plans by it.
func RequestClass(path string) string {
	p := strings.TrimPrefix(path, "/")
	if rest, ok := strings.CutPrefix(p, "v1/"); ok {
		p = rest
	}
	if i := strings.IndexByte(p, '/'); i >= 0 {
		p = p[:i]
	}
	if p == "" {
		return "*"
	}
	return p
}

func modelKey(spec service.ModelSpec) (string, error) {
	m, _, err := spec.Build()
	if err != nil {
		return "", err
	}
	return m.CacheKey()
}

func topologyKey(spec service.TopologySpec) (string, error) {
	hm, _, err := spec.Build()
	if err != nil {
		return "", err
	}
	return hm.CacheKey()
}

// writeJSON mirrors the replica's envelope for router-originated bodies.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		buf = []byte(`{"error":"fleet: unrepresentable response"}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(buf, '\n'))
}

func writeErr(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// send forwards one attempt to a peer, counting it.
func (rt *Router) send(ctx context.Context, peer, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rt.opts.Peers[peer]+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	rt.ledger(peer).forwards.Add(1)
	return rt.do(req)
}

type attemptResult struct {
	resp *http.Response
	peer string
	err  error
}

// dispatch races the owner (and, past HedgeAfter, its successor) for a
// unary request, failing over along the ring with bounded backoff until
// a definitive response arrives. A definitive response is anything
// non-transient — a replica's 400 is the request's answer, not a reason
// to ask someone else. When every attempt ends transient, the last
// transient response (with its Retry-After) is surfaced to the client.
func (rt *Router) dispatch(ctx context.Context, key, path string, body []byte) (*http.Response, string, error) {
	owners := rt.ring.Owners(key, rt.ring.Len())
	if len(owners) == 0 {
		return nil, "", errors.New("fleet: no peers in ring")
	}
	results := make(chan attemptResult, maxAttempts)
	launched, received := 0, 0
	next := 0
	launch := func(peer string) {
		launched++
		go func() {
			resp, err := rt.send(ctx, peer, path, body)
			results <- attemptResult{resp: resp, peer: peer, err: err}
		}()
	}
	// Stragglers (the losing half of a hedge, attempts resolved after the
	// winner) drain in the background so their connections are reusable.
	defer func() {
		if n := launched - received; n > 0 {
			go func() {
				for i := 0; i < n; i++ {
					if ar := <-results; ar.resp != nil {
						drainClose(ar.resp)
					}
				}
			}()
		}
	}()

	launch(owners[next])
	next++
	inFlight := 1
	var hedgeC <-chan time.Time
	if d := rt.opts.hedgeAfter(); d > 0 && len(owners) > 1 {
		hedgeC = time.After(d)
	}
	var lastResp *http.Response
	var lastPeer string
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return nil, "", ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			if launched < maxAttempts {
				peer := owners[next%len(owners)]
				next++
				rt.ledger(peer).hedges.Add(1)
				launch(peer)
				inFlight++
			}
		case ar := <-results:
			received++
			inFlight--
			if ar.err == nil && !service.RetryableStatus(ar.resp.StatusCode) {
				return ar.resp, ar.peer, nil
			}
			rt.ledger(ar.peer).errors.Add(1)
			if ar.err != nil {
				lastErr = ar.err
			} else {
				if lastResp != nil {
					drainClose(lastResp)
				}
				lastResp, lastPeer = ar.resp, ar.peer
				lastErr = fmt.Errorf("fleet: %s from %s: transient status %d", path, ar.peer, ar.resp.StatusCode)
			}
			if inFlight > 0 {
				continue // the hedge (or a pending retry) may still win
			}
			if launched >= maxAttempts {
				if lastResp != nil {
					return lastResp, lastPeer, nil
				}
				return nil, "", fmt.Errorf("fleet: giving up after %d attempts: %w", launched, lastErr)
			}
			select {
			case <-time.After(rt.retryDelay(key, launched, service.RetryAfter(lastResp))):
			case <-ctx.Done():
				return nil, "", ctx.Err()
			}
			peer := owners[next%len(owners)]
			next++
			if peer == ar.peer {
				rt.ledger(peer).retries.Add(1)
			} else {
				rt.ledger(peer).failovers.Add(1)
			}
			launch(peer)
			inFlight++
		}
	}
}

func (rt *Router) handleUnary(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	key, err := ShardKey(r.URL.Path, body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if !rt.admit() {
		writeErr(w, http.StatusServiceUnavailable, errors.New("fleet: router saturated, retry later"))
		return
	}
	defer rt.done()
	resp, peer, err := rt.dispatch(r.Context(), key, r.URL.Path, body)
	if err != nil {
		status := http.StatusBadGateway
		if r.Context().Err() != nil {
			status = 499
		}
		writeErr(w, status, err)
		return
	}
	defer resp.Body.Close()
	copyHeader(w, resp, "Content-Type")
	copyHeader(w, resp, "Retry-After")
	w.Header().Set("X-Fleet-Peer", peer)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func copyHeader(w http.ResponseWriter, resp *http.Response, name string) {
	if v := resp.Header.Get(name); v != "" {
		w.Header().Set(name, v)
	}
}

// handleSweep forwards a streaming sweep with mid-stream failover: the
// router relays whole NDJSON rows as they arrive and counts them; when
// the replica dies (connection cut, partial line) or drains
// (service.ErrDraining), it re-issues the request with the remaining
// axis values to the next ring peer and splices the streams at the row
// boundary. Any other error line is the stream's own answer — a cell
// that fails fails alike on every replica — and ends the relay. Cold
// sweeps splice bit-identically (every cell is an independent full
// solve); warm sweeps stay within the documented refinement tolerance,
// exactly as on a single node whose chain restarts.
func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var req service.SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	key, err := sweepKey(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if !rt.admit() {
		writeErr(w, http.StatusServiceUnavailable, errors.New("fleet: router saturated, retry later"))
		return
	}
	defer rt.done()

	// Relayed lines are written without a flush: relayRows flushes when
	// the relay would otherwise wait, and the handler's return sends the
	// rest.
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	want := len(req.Values)
	emitted := 0
	wroteHeader := false
	emitLine := func(line string) {
		if !wroteHeader {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			wroteHeader = true
		}
		_, _ = io.WriteString(w, line)
	}

	var lastPeer string
	var lastErr error
	var retryFloor time.Duration
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			delay := rt.retryDelay(key, attempt-1, retryFloor)
			retryFloor = 0
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		owners := rt.ring.Owners(key, rt.ring.Len())
		if len(owners) == 0 {
			lastErr = errors.New("fleet: no peers in ring")
			continue
		}
		peer := owners[(attempt-1)%len(owners)]
		if attempt > 1 {
			if peer == lastPeer {
				rt.ledger(peer).retries.Add(1)
			} else {
				rt.ledger(peer).failovers.Add(1)
			}
		}
		lastPeer = peer
		sendBody := body
		if emitted > 0 {
			// Resume exactly where the dead replica stopped: the remaining
			// axis values, same request otherwise. The original raw body is
			// only reusable for a from-zero attempt.
			rest := req
			rest.Values = req.Values[emitted:]
			sendBody, err = json.Marshal(rest)
			if err != nil {
				break // cannot happen for a body that unmarshalled; bail honestly
			}
		}
		resp, err := rt.send(r.Context(), peer, "/v1/sweep", sendBody)
		if err != nil {
			rt.ledger(peer).errors.Add(1)
			lastErr = err
			continue
		}
		if service.RetryableStatus(resp.StatusCode) {
			rt.ledger(peer).errors.Add(1)
			lastErr = fmt.Errorf("fleet: sweep via %s: transient status %d", peer, resp.StatusCode)
			retryFloor = service.RetryAfter(resp)
			drainClose(resp)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			// Definitive non-stream answer (400/422/...). Before any rows it
			// is relayed verbatim. A resumed request gets one when its first
			// cell fails, as that cell fails on every replica: the status
			// line is spent, so its body goes out as the stream's trailing
			// error line, which names the cell by axis value exactly as a
			// single node's stream does.
			if wroteHeader {
				line, _ := io.ReadAll(io.LimitReader(resp.Body, maxRouterBody))
				resp.Body.Close()
				if !bytes.HasSuffix(line, []byte("\n")) {
					line = append(line, '\n')
				}
				emitLine(string(line))
				return
			}
			copyHeader(w, resp, "Content-Type")
			w.Header().Set("X-Fleet-Peer", peer)
			w.WriteHeader(resp.StatusCode)
			_, _ = io.Copy(w, resp.Body)
			resp.Body.Close()
			return
		}
		terminated, err := rt.relayRows(resp, want, &emitted, emitLine, flush)
		resp.Body.Close()
		if !terminated && err == nil {
			return // the stream's end: every row, or its own trailing error line
		}
		rt.ledger(peer).errors.Add(1)
		if err != nil {
			lastErr = fmt.Errorf("fleet: sweep via %s died mid-stream after %d rows: %w", peer, emitted, err)
		} else {
			lastErr = fmt.Errorf("fleet: sweep via %s terminated early after %d rows", peer, emitted)
		}
	}
	if lastErr == nil {
		lastErr = errors.New("fleet: sweep failed")
	}
	err = fmt.Errorf("fleet: giving up after %d attempts: %w", maxAttempts, lastErr)
	if !wroteHeader {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	buf, _ := json.Marshal(map[string]string{"error": err.Error()})
	emitLine(string(buf) + "\n")
}

// relayRows copies complete NDJSON rows from a replica stream to the
// client, bumping *emitted per row. It returns terminated=true at the
// replica's drain notice (service.ErrDraining), which is not relayed,
// and a non-nil error when the connection died mid-stream: in both cases
// the remaining rows are the next peer's to send. Any other error line
// that does not stand in for one cell is the stream's own answer (a cell
// that failed, and would fail alike on any replica): it is relayed as
// the last line and relayRows returns cleanly, as it does after the full
// axis. A sweep row is relayed without decoding: it always begins with
// its first field, x, and errorLine returns false for every such line.
// emitLine writes without flushing. Lines it relayed are flushed when
// the reader's buffer is empty, just before a read that can block on the
// replica, and on return: the router never holds a row it already has
// while it waits for more.
func (rt *Router) relayRows(resp *http.Response, want int, emitted *int, emitLine func(string), flush func()) (terminated bool, err error) {
	unflushed := false
	defer func() {
		if unflushed {
			flush()
		}
	}()
	br := bufio.NewReader(resp.Body)
	for *emitted < want {
		if unflushed && br.Buffered() == 0 {
			flush()
			unflushed = false
		}
		line, err := br.ReadString('\n')
		if err != nil {
			// EOF with a partial line means the replica died mid-row; the
			// fragment is discarded and the row re-fetched elsewhere. Plain
			// EOF short of the full axis is a death at a row boundary.
			return false, fmt.Errorf("stream ended after %d of %d rows: %w", *emitted, want, err)
		}
		if !strings.HasPrefix(line, rowPrefix) {
			if msg, isErr := errorLine(line); isErr && !positionalError(msg) {
				if msg == service.ErrDraining.Error() {
					// Not relayed: the remaining rows come from the next peer.
					return true, nil
				}
				emitLine(line)
				unflushed = true
				return false, nil
			}
		}
		emitLine(line)
		unflushed = true
		*emitted++
	}
	return false, nil
}

// rowPrefix opens every encoded service.SweepRow: X is its first field.
const rowPrefix = `{"x":`

// errorLine reports whether an NDJSON line is an error envelope rather
// than a sweep row (rows always carry an "x" field; envelopes only
// "error").
func errorLine(line string) (string, bool) {
	var e struct {
		Error string          `json:"error"`
		X     json.RawMessage `json:"x"`
	}
	if json.Unmarshal([]byte(line), &e) != nil {
		return "", false
	}
	return e.Error, e.Error != "" && e.X == nil
}

// positionalError reports whether an error line stands in for one cell
// (an unrepresentable value) rather than terminating the stream; those
// relay as rows — the next peer would deterministically produce the
// same line.
func positionalError(msg string) bool {
	return strings.Contains(msg, "not representable in JSON")
}

// PeerStats is one peer's slice of the router ledger, plus (best-effort)
// the replica's own engine stats — the per-shard cache hit/miss view.
type PeerStats struct {
	URL       string         `json:"url"`
	InRing    bool           `json:"in_ring"`
	Forwards  uint64         `json:"forwards"`
	Hedges    uint64         `json:"hedges"`
	Failovers uint64         `json:"failovers"`
	Retries   uint64         `json:"retries"`
	Errors    uint64         `json:"errors"`
	Engine    *service.Stats `json:"engine,omitempty"`
}

// RouterStats is the GET /v1/stats body in router mode.
type RouterStats struct {
	Ring  []string             `json:"ring"`
	Shed  uint64               `json:"shed"`
	Peers map[string]PeerStats `json:"peers"`
}

// Stats snapshots the router ledger. When ctx is non-nil each live
// peer's /v1/stats is fetched (briefly, best-effort) so the fleet view
// includes per-shard cache hit/miss counters.
func (rt *Router) Stats(ctx context.Context) RouterStats {
	out := RouterStats{
		Ring:  rt.ring.Peers(),
		Shed:  rt.shed.Load(),
		Peers: make(map[string]PeerStats, len(rt.opts.Peers)),
	}
	names := make([]string, 0, len(rt.peers))
	for name := range rt.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := rt.peers[name]
		out.Peers[name] = PeerStats{
			URL:       rt.opts.Peers[name],
			InRing:    rt.ring.Has(name),
			Forwards:  c.forwards.Load(),
			Hedges:    c.hedges.Load(),
			Failovers: c.failovers.Load(),
			Retries:   c.retries.Load(),
			Errors:    c.errors.Load(),
		}
	}
	if ctx == nil {
		return out
	}
	var wg sync.WaitGroup
	var smu sync.Mutex
	engines := make(map[string]*service.Stats)
	for _, name := range names {
		if !out.Peers[name].InRing {
			continue
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(sctx, http.MethodGet, rt.opts.Peers[name]+"/v1/stats", nil)
			if err != nil {
				return
			}
			resp, err := rt.do(req)
			if err != nil {
				return
			}
			defer drainClose(resp)
			if resp.StatusCode != http.StatusOK {
				return
			}
			var st service.Stats
			if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st) != nil {
				return
			}
			smu.Lock()
			engines[name] = &st
			smu.Unlock()
		}(name)
	}
	wg.Wait()
	for _, name := range names {
		st := engines[name]
		if st == nil {
			continue
		}
		ps := out.Peers[name]
		ps.Engine = st
		out.Peers[name] = ps
	}
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats(r.Context()))
}

// handleReady: a router is ready while it has someone to route to.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	if rt.ring.Len() == 0 {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, service.ReadyResponse{Reason: "no live peers"})
		return
	}
	writeJSON(w, http.StatusOK, service.ReadyResponse{Ready: true})
}

// drainClose discards and closes a response body, keeping the
// underlying connection reusable.
func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
