package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"amdahlyd/internal/service"
)

// HealthOptions tunes the checker; the zero value probes every 500 ms.
// Whatever the options, a member is evicted after 2 consecutive failed
// probes and readmitted after 2 consecutive passes — eager enough that
// a killed replica leaves the ring within a second, hysteretic enough
// that one dropped probe does not flap it.
type HealthOptions struct {
	// Interval between probe rounds (default 500 ms).
	Interval time.Duration
	// Timeout per probe (default Interval, so rounds never pile up).
	Timeout time.Duration
}

const (
	// failAfter consecutive failed probes evict a member.
	failAfter = 2
	// riseAfter consecutive passing probes readmit a non-member.
	riseAfter = 2
)

// healthClient carries readiness probes and warm-fills on a transport of
// their own, so a probe never queues behind the router's forwards.
var healthClient = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}

func (o HealthOptions) interval() time.Duration {
	if o.Interval > 0 {
		return o.Interval
	}
	return 500 * time.Millisecond
}

func (o HealthOptions) timeout() time.Duration {
	if o.Timeout > 0 {
		return o.Timeout
	}
	return o.interval()
}

// HealthChecker drives ring membership from each peer's /readyz: a
// replica that stops answering (dead, draining, or saturated past its
// queue) is evicted after failAfter consecutive failed probes, and a
// replica that comes back is warm-filled from its ring neighbour —
// the member that owned its keyspace in its absence — before being
// readmitted, so a rejoining peer takes traffic warm instead of paying
// cold solves for keys its neighbour already has.
type HealthChecker struct {
	ring  *Ring
	peers map[string]string // name → base URL
	opts  HealthOptions

	mu     sync.Mutex
	fails  map[string]int
	passes map[string]int
	fills  int // completed warm-fills (test observability)

	stop chan struct{}
	done chan struct{}
}

// NewHealthChecker builds a checker over the same peer set as the
// router; it drives the router's ring but owns no other router state.
func NewHealthChecker(ring *Ring, peers map[string]string, opts HealthOptions) *HealthChecker {
	return &HealthChecker{
		ring:   ring,
		peers:  peers,
		opts:   opts,
		fails:  make(map[string]int),
		passes: make(map[string]int),
	}
}

// Start launches the probe loop; Stop ends it.
func (h *HealthChecker) Start() {
	if h.stop != nil {
		return
	}
	h.stop = make(chan struct{})
	h.done = make(chan struct{})
	go func() {
		defer close(h.done)
		t := time.NewTicker(h.opts.interval())
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.ProbeOnce(context.Background())
			}
		}
	}()
}

// Stop terminates the probe loop and waits for it.
func (h *HealthChecker) Stop() {
	if h.stop == nil {
		return
	}
	close(h.stop)
	<-h.done
	h.stop = nil
}

// Fills returns how many warm-fills have completed.
func (h *HealthChecker) Fills() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fills
}

// ProbeOnce runs one probe round across all peers (concurrently) and
// applies the membership transitions. Probes launch and verdicts apply
// in sorted peer order, so a round's evict/join sequence is identical
// across runs. Exported so tests can step the checker deterministically
// instead of sleeping through intervals.
func (h *HealthChecker) ProbeOnce(ctx context.Context) {
	names := make([]string, 0, len(h.peers))
	for name := range h.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	type verdict struct {
		peer string
		ok   bool
	}
	results := make(chan verdict, len(names))
	for _, name := range names {
		go func(name, base string) {
			results <- verdict{peer: name, ok: h.probe(ctx, base)}
		}(name, h.peers[name])
	}
	verdicts := make(map[string]bool, len(names))
	for range names {
		v := <-results
		verdicts[v.peer] = v.ok
	}
	for _, name := range names {
		h.observe(ctx, name, verdicts[name])
	}
}

// probe is one readiness check: anything but a timely 200 is a failure
// (a 503 from a draining or saturated replica deliberately reads as
// "stop routing here", which is the point of the readiness split).
func (h *HealthChecker) probe(ctx context.Context, base string) bool {
	pctx, cancel := context.WithTimeout(ctx, h.opts.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := healthClient.Do(req)
	if err != nil {
		return false
	}
	defer drainClose(resp)
	return resp.StatusCode == http.StatusOK
}

// observe applies one probe verdict with hysteresis.
func (h *HealthChecker) observe(ctx context.Context, peer string, ok bool) {
	h.mu.Lock()
	if !ok {
		h.fails[peer]++
		h.passes[peer] = 0
		evict := h.fails[peer] >= failAfter
		h.mu.Unlock()
		if evict {
			h.ring.Remove(peer)
		}
		return
	}
	h.fails[peer] = 0
	h.passes[peer]++
	join := h.passes[peer] >= riseAfter && !h.ring.Has(peer)
	h.mu.Unlock()
	if !join {
		return
	}
	// Warm-fill before admission: once the peer is in the ring it takes
	// traffic, so the fill must land first. The donor is computed against
	// the current ring (peer absent): the member owning its keyspace now.
	if donor := h.ring.Neighbour(peer); donor != "" {
		// The fill is two requests, a pull and a push; each gets one probe
		// timeout. A donor that is ready but never answers its hot set
		// must not hold this round, and with it every other peer's
		// membership, hostage.
		fctx, cancel := context.WithTimeout(ctx, 2*h.opts.timeout())
		_, err := WarmFill(fctx, h.peers[donor], h.peers[peer])
		cancel()
		if err == nil {
			h.mu.Lock()
			h.fills++
			h.mu.Unlock()
		}
		// A failed or timed-out fill is not a reason to keep a ready peer
		// out of the ring: it joins cold, exactly as if it had no donor.
	}
	h.ring.Add(peer)
}

// WarmFill pulls the donor replica's hot cache entries (as many as its
// /v1/cache/hot returns by default) and pushes them into the joiner,
// returning how many the joiner accepted. Sound end to end: entries are
// pure functions of their keys and float64 survives the JSON hop
// bit-exactly, so a filled entry is indistinguishable from one the
// joiner solved itself.
func WarmFill(ctx context.Context, donorURL, joinerURL string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, donorURL+"/v1/cache/hot", nil)
	if err != nil {
		return 0, err
	}
	resp, err := healthClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("fleet: warm-fill pull from %s: %w", donorURL, err)
	}
	hot, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	resp.Body.Close()
	if err != nil {
		return 0, fmt.Errorf("fleet: warm-fill pull from %s: %w", donorURL, err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("fleet: warm-fill pull from %s: status %d", donorURL, resp.StatusCode)
	}
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost, joinerURL+"/v1/cache/fill", bytes.NewReader(hot))
	if err != nil {
		return 0, err
	}
	preq.Header.Set("Content-Type", "application/json")
	presp, err := healthClient.Do(preq)
	if err != nil {
		return 0, fmt.Errorf("fleet: warm-fill push to %s: %w", joinerURL, err)
	}
	defer drainClose(presp)
	if presp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("fleet: warm-fill push to %s: status %d", joinerURL, presp.StatusCode)
	}
	var fr service.FillResponse
	if err := json.NewDecoder(io.LimitReader(presp.Body, 1<<20)).Decode(&fr); err != nil {
		return 0, fmt.Errorf("fleet: warm-fill push to %s: %w", joinerURL, err)
	}
	return fr.Accepted, nil
}
