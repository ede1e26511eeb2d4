package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"amdahlyd/internal/service"
)

// The forwarder's own contract: a connection goes back to the idle stack
// only after a clean end of a keep-alive response, a cancelled forward
// closes its connection and returns the context's error, a connection
// the replica closed while idle is replayed on without a failover, and
// the replica sees the request net/http.Transport would have sent.

// watchedServer starts h on a test server whose closed connections are
// signalled on the returned channel.
func watchedServer(t *testing.T, h http.Handler, idleTimeout time.Duration) (*httptest.Server, <-chan struct{}) {
	t.Helper()
	closed := make(chan struct{}, 64) // more than any test here closes
	ts := httptest.NewUnstartedServer(h)
	ts.Config.IdleTimeout = idleTimeout
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateClosed {
			closed <- struct{}{}
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, closed
}

func waitClosed(t *testing.T, closed <-chan struct{}) {
	t.Helper()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("the replica never saw its connection close")
	}
}

func (f *forwarder) idleCount(addr string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.idle[addr])
}

// TestForwarderReturnsAConnectionOnlyAtEOF: a body read to its end on a
// keep-alive response returns its connection; a body closed before its
// end, or a Connection: close response, closes it.
func TestForwarderReturnsAConnectionOnlyAtEOF(t *testing.T) {
	ts, closed := watchedServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/big":
			// Larger than the connection's read buffer, so an early Close
			// leaves bytes unread on the wire.
			_, _ = io.WriteString(w, strings.Repeat("x", 16*connBufSize))
		case "/close":
			w.Header().Set("Connection", "close")
			_, _ = io.WriteString(w, "ok\n")
		default:
			_, _ = io.WriteString(w, "ok\n")
		}
	}), 0)
	addr := strings.TrimPrefix(ts.URL, "http://")
	for _, tc := range []struct {
		name, path string
		readAll    bool
		wantIdle   int
	}{
		{"read-to-eof", "/small", true, 1},
		{"closed-before-eof", "/big", false, 0},
		{"connection-close", "/close", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newForwarder()
			req, err := http.NewRequest(http.MethodGet, ts.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := f.RoundTrip(req)
			if err != nil {
				t.Fatal(err)
			}
			if tc.readAll {
				_, err = io.ReadAll(resp.Body)
			} else {
				_, err = io.ReadFull(resp.Body, make([]byte, 10))
			}
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if n := f.idleCount(addr); n != tc.wantIdle {
				t.Fatalf("%d idle connections after the body ended; want %d", n, tc.wantIdle)
			}
			if tc.wantIdle == 0 {
				waitClosed(t, closed)
			}
			if _, err := resp.Body.Read(make([]byte, 1)); err == nil {
				t.Fatal("a released body still reads")
			}
		})
	}
}

// TestForwarderCancelReturnsContextError: a forward cancelled while it
// waits for the response head returns the context's error and closes
// its connection.
func TestForwarderCancelReturnsContextError(t *testing.T) {
	entered := make(chan struct{})
	ts, closed := watchedServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // the server watches for a hang-up once the body is read
		close(entered)
		<-r.Context().Done()
	}), 0)
	f := newForwarder()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/optimize", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-entered
		cancel()
	}()
	if _, err := f.RoundTrip(req); err != context.Canceled {
		t.Fatalf("cancelled forward returned %v; want context.Canceled", err)
	}
	waitClosed(t, closed)
	if n := f.idleCount(strings.TrimPrefix(ts.URL, "http://")); n != 0 {
		t.Fatalf("%d idle connections after a cancelled forward; want 0", n)
	}
}

// TestRouterReplaysOnAConnectionTheReplicaClosed: a replica that closed
// an idle connection costs the next request no failover, no retry and
// no peer error. The router finds the connection dead before any byte of
// a response and replays the request on a fresh one.
func TestRouterReplaysOnAConnectionTheReplicaClosed(t *testing.T) {
	const body = `{"model":{"platform":"hera","scenario":2}}`
	for _, tc := range []struct {
		name        string
		idleTimeout time.Duration
		closeIdle   func(*httptest.Server)
	}{
		{"close-client-connections", 0, (*httptest.Server).CloseClientConnections},
		{"idle-timeout", 5 * time.Millisecond, func(*httptest.Server) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, closed := watchedServer(t, service.NewServer(service.NewEngine(service.Options{MaxConcurrent: 2})), tc.idleTimeout)
			rt, err := NewRouter(RouterOptions{Peers: map[string]string{"p1": ts.URL}, HedgeAfter: -1})
			if err != nil {
				t.Fatal(err)
			}
			forward := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
				return rec
			}
			first := forward()
			tc.closeIdle(ts)
			waitClosed(t, closed)
			second := forward()
			var a, b service.OptimizeResponse
			if json.Unmarshal(first.Body.Bytes(), &a) != nil || json.Unmarshal(second.Body.Bytes(), &b) != nil ||
				!b.Cached || b.T != a.T || b.P != a.P {
				t.Fatalf("replayed answer is not the cached first one\nfirst:  %s\nsecond: %s", first.Body, second.Body)
			}
			ps := rt.Stats(nil).Peers["p1"]
			if ps.Forwards != 2 || ps.Failovers+ps.Retries+ps.Errors != 0 {
				t.Fatalf("a closed idle connection cost the ledger %+v; want 2 forwards and nothing else", ps)
			}
		})
	}
}

// TestRouterHangUpMidSweepClosesReplicaConnection: a client that hangs
// up while a sweep streams makes the router close its replica
// connection, and leaves no goroutine behind.
func TestRouterHangUpMidSweepClosesReplicaConnection(t *testing.T) {
	replica, closed := watchedServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = io.WriteString(w, `{"x":1e-10}`+"\n")
		w.(http.Flusher).Flush()
		<-r.Context().Done() // the second row never comes
	}), 0)
	rt, err := NewRouter(RouterOptions{Peers: map[string]string{"p1": replica.URL}, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	var served sync.WaitGroup
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer served.Done()
		rt.ServeHTTP(w, r)
	}))
	defer front.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/v1/sweep",
		strings.NewReader(`{"model":{"platform":"hera","scenario":1},"axis":"lambda","values":[1e-10,1e-9]}`))
	if err != nil {
		t.Fatal(err)
	}
	served.Add(1)
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if line, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil || !strings.HasPrefix(line, rowPrefix) {
		t.Fatalf("first relayed line %q, %v; want a row", line, err)
	}
	cancel()
	resp.Body.Close()
	waitClosed(t, closed)
	served.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines left behind: %d running, %d before the request\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterForwardsWhatTheStockTransportSent: through the forwarder the
// replica's handler sees the method, path, Content-Type, Content-Length
// and body that net/http.Transport sent, and the client gets the same
// status, body and headers back.
func TestRouterForwardsWhatTheStockTransportSent(t *testing.T) {
	type seenRequest struct {
		method, path, contentType, contentLength, body string
		length                                         int64
		chunked                                        bool
	}
	var mu sync.Mutex
	var seen []seenRequest
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		seen = append(seen, seenRequest{r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type"),
			r.Header.Get("Content-Length"), string(b), r.ContentLength, len(r.TransferEncoding) > 0})
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusUnprocessableEntity)
		_, _ = io.WriteString(w, `{"error":"seen"}`+"\n")
	}))
	defer replica.Close()

	requests := []struct{ path, body string }{
		{"/v1/optimize", `{"model":{"platform":"hera","scenario":1}}`},
		{"/v1/sweep", `{"model":{"platform":"hera","scenario":1},"axis":"lambda","values":[1e-10]}`},
	}
	var answers [2][]string
	for i, client := range []*http.Client{nil, {Transport: http.DefaultTransport.(*http.Transport).Clone()}} {
		rt, err := NewRouter(RouterOptions{Peers: map[string]string{"p1": replica.URL}, HedgeAfter: -1, Client: client})
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range requests {
			rec := httptest.NewRecorder()
			rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, strings.NewReader(req.body)))
			h := rec.Header()
			answers[i] = append(answers[i], strings.Join([]string{rec.Result().Status, rec.Body.String(),
				h.Get("Content-Type"), h.Get("Retry-After"), h.Get("X-Fleet-Peer")}, "|"))
		}
	}
	if len(seen) != 2*len(requests) {
		t.Fatalf("replica saw %d requests; want %d", len(seen), 2*len(requests))
	}
	for i, req := range requests {
		got, stock := seen[i], seen[len(requests)+i]
		if got != stock {
			t.Errorf("%s: forwarder sent %+v; net/http.Transport sent %+v", req.path, got, stock)
		}
		want := seenRequest{http.MethodPost, req.path, "application/json", strconv.Itoa(len(req.body)), req.body, int64(len(req.body)), false}
		if got != want {
			t.Errorf("%s: replica saw %+v; want %+v", req.path, got, want)
		}
		if answers[0][i] != answers[1][i] {
			t.Errorf("%s: client got %q through the forwarder, %q through net/http.Transport", req.path, answers[0][i], answers[1][i])
		}
	}
}

// TestPeerURLs: a peer URL without a port dials port 80, as net/http
// does, and the router refuses a peer it cannot speak to.
func TestPeerURLs(t *testing.T) {
	for raw, want := range map[string]string{
		"http://10.0.0.7:8080": "10.0.0.7:8080",
		"http://replica":       "replica:80",
		"http://[::1]":         "[::1]:80",
		"http://[::1]:9":       "[::1]:9",
	} {
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got := peerAddr(u); got != want {
			t.Errorf("peerAddr(%s) = %q; want %q", raw, got, want)
		}
	}
	for _, base := range []string{"https://10.0.0.7:8443", "ftp://10.0.0.7", "10.0.0.7:8080"} {
		if _, err := NewRouter(RouterOptions{Peers: map[string]string{"p1": base}}); err == nil {
			t.Errorf("NewRouter accepted peer %q", base)
		} else if !strings.Contains(err.Error(), base) {
			t.Errorf("NewRouter(%q): %v; want an error naming the URL", base, err)
		}
	}
}
