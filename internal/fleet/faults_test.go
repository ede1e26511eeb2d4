package fleet

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// The fleet's fault-injection harness, extending the deterministic
// campaign.FaultPlan idea one level up: instead of failing Monte-Carlo
// attempts inside one process, a FaultPlan misbehaves *replicas* — by
// peer and request class — so every failure mode the router must
// survive (503 shedding, slow owners, replicas dying mid-stream) is
// driven by a scripted test rather than luck. Faults are deterministic:
// same plan, same request order, same injections. Plans are Go values
// built by the tests; there is no file format.

// Fault describes one injected misbehaviour.
type Fault struct {
	// Code short-circuits matching requests with this HTTP status before
	// the real handler runs; 503 carries Retry-After: 1, exercising the
	// load-shedding path end to end.
	Code int
	// DelayMS stalls matching requests before handling, exercising the
	// hedging path (a slow owner must not hold the client hostage).
	DelayMS int
	// Drop aborts the connection without a response — the closest
	// in-process stand-in for a replica dying mid-request.
	Drop bool
	// DropAfterRows delays the Drop until N complete NDJSON rows have
	// been written, killing a replica mid-stream at a row boundary (the
	// router's line reassembly covers mid-row cuts regardless).
	DropAfterRows int
	// Reqs limits the fault to the first N matching requests fleet-wide
	// per plan entry (0 = every matching request, forever). Bounded
	// faults let a test script "fail twice, then recover".
	Reqs int
}

// FaultPlan maps "<peer>|<class>" to injected faults. Peer is the name
// the Controller wraps a replica under; class is the request class
// (first path segment under /v1/, e.g. "optimize", "sweep", "multilevel",
// plus "readyz"/"healthz"/"stats"). Either side may be "*".
type FaultPlan map[string]Fault

// Controller applies a FaultPlan to wrapped replica handlers, keeping
// the fleet-wide per-entry request counters that make bounded faults
// (Reqs) deterministic across peers.
type Controller struct {
	mu    sync.Mutex
	plan  FaultPlan
	fired map[string]int // plan entry key → matches consumed
	seen  map[string]int // "peer|class" → requests observed (test observability)
}

// NewController builds a controller for the plan (nil means no faults,
// counters still collected).
func NewController(plan FaultPlan) *Controller {
	return &Controller{plan: plan, fired: make(map[string]int), seen: make(map[string]int)}
}

// SetPlan swaps the plan mid-run (counters keep accumulating), letting a
// test script phase changes: "drop everything on p1, then heal it".
func (c *Controller) SetPlan(plan FaultPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plan = plan
}

// Seen returns how many requests of the class reached the peer
// (post-injection short-circuits included).
func (c *Controller) Seen(peer, class string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen[peer+"|"+class]
}

// match resolves the fault for (peer, class), most specific key first,
// and consumes one firing if the entry is bounded. The consumed counter
// is per plan entry and fleet-wide, so {"*|optimize": {delay, reqs: 1}}
// delays exactly one request regardless of which peer it lands on.
func (c *Controller) match(peer, class string) (Fault, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen[peer+"|"+class]++
	for _, key := range []string{peer + "|" + class, peer + "|*", "*|" + class, "*"} {
		f, ok := c.plan[key]
		if !ok {
			continue
		}
		if f.Reqs > 0 && c.fired[key] >= f.Reqs {
			continue
		}
		c.fired[key]++
		return f, true
	}
	return Fault{}, false
}

// Wrap applies the plan to a replica handler under the given peer name.
func (c *Controller) Wrap(peer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := c.match(peer, RequestClass(r.URL.Path))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		if f.DelayMS > 0 {
			select {
			case <-time.After(time.Duration(f.DelayMS) * time.Millisecond):
			case <-r.Context().Done():
				return
			}
		}
		switch {
		case f.Drop && f.DropAfterRows == 0:
			panic(http.ErrAbortHandler)
		case f.Drop:
			next.ServeHTTP(&droppingWriter{ResponseWriter: w, rowsLeft: f.DropAfterRows}, r)
		case f.Code != 0:
			if f.Code == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", "1")
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(f.Code)
			fmt.Fprintf(w, "{\"error\":\"fleet: injected fault (status %d)\"}\n", f.Code)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// droppingWriter forwards writes until rowsLeft complete NDJSON rows
// have passed, then aborts the connection — a replica dying mid-stream.
type droppingWriter struct {
	http.ResponseWriter
	rowsLeft int
}

func (d *droppingWriter) Write(p []byte) (int, error) {
	if d.rowsLeft <= 0 {
		panic(http.ErrAbortHandler)
	}
	d.rowsLeft -= strings.Count(string(p), "\n")
	return d.ResponseWriter.Write(p)
}

// Flush keeps the wrapped writer streaming-capable.
func (d *droppingWriter) Flush() {
	if f, ok := d.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestFaultBoundedReqsAreFleetWide pins the determinism contract: a
// bounded entry fires exactly Reqs times across all peers, most-specific
// key first.
func TestFaultBoundedReqsAreFleetWide(t *testing.T) {
	c := NewController(FaultPlan{
		"*|optimize": {Code: 503, Reqs: 2},
		"p2|*":       {DelayMS: 1},
	})
	// p1 consumes both bounded firings; the third optimize match falls
	// through to no fault.
	for i, wantFault := range []bool{true, true, false} {
		_, ok := c.match("p1", "optimize")
		if ok != wantFault {
			t.Fatalf("p1 optimize match %d = %v; want %v", i, ok, wantFault)
		}
	}
	// p2's more specific peer wildcard still matches (separate entry).
	if f, ok := c.match("p2", "optimize"); !ok || f.DelayMS != 1 {
		t.Fatalf("p2 match = %+v, %v; want the p2|* delay", f, ok)
	}
	if got := c.Seen("p1", "optimize"); got != 3 {
		t.Fatalf("Seen(p1, optimize) = %d; want 3", got)
	}
}
