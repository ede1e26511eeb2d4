package fleet

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"amdahlyd/internal/service"
)

// TestRouterReusesReplicaConnections pins the router's connection reuse:
// with 32 concurrent callers sending cached optimize bodies, the router
// opens at most one connection per caller and replica, however many
// requests follow. The replicas count new connections through ConnState,
// so the bound is a count, not a timing.
func TestRouterReusesReplicaConnections(t *testing.T) {
	const (
		replicas = 3
		callers  = 32
		perCall  = 100
	)
	var opened atomic.Int64
	peers := make(map[string]string, replicas)
	for i := 0; i < replicas; i++ {
		ts := httptest.NewUnstartedServer(service.NewServer(service.NewEngine(service.Options{})))
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				opened.Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		peers[fmt.Sprintf("p%d", i+1)] = ts.URL
	}
	rt, err := NewRouter(RouterOptions{Peers: peers, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}

	bodies := make([]string, 16)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"model":{"platform":"hera","scenario":%d,"alpha":%g}}`, 1+i%6, 0.05*float64(1+i))
	}
	forward := func(body string) int {
		req := httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(body))
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		return rec.Code
	}
	for _, body := range bodies { // warm every replica's cache
		if code := forward(body); code != http.StatusOK {
			t.Fatalf("warm-up answered %d", code)
		}
	}

	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCall; i++ {
				if forward(bodies[(c+i)%len(bodies)]) != http.StatusOK {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d forwards failed", n, callers*perCall)
	}
	if n := opened.Load(); n > callers*replicas {
		t.Fatalf("router opened %d replica connections for %d requests; want at most %d (one per caller and replica)",
			n, callers*perCall+len(bodies), callers*replicas)
	}
}
