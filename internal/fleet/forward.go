package fleet

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// forwarder is the router's default forwarding transport: HTTP/1.1 over
// keep-alive connections it keeps itself, each exchange run on the
// calling goroutine. net/http.Transport moves every request across two
// goroutines per connection (readLoop and writeLoop) with channel
// handoffs, connection-wait queueing and cancel wiring; for a cached
// request that costs about as much CPU as the rest of the router
// (DESIGN.md, "Planning fleet").
//
// Per peer address it keeps a LIFO stack of idle connections, at most
// maxInFlight deep. There is no idle timer and no background goroutine:
// a connection the peer closed while idle is found when it is next used,
// and a request that fails on it before any byte of the response arrived
// is replayed once on a fresh connection. That replay is safe because
// every routed request is a pure function of its body.
type forwarder struct {
	dialer net.Dialer

	mu   sync.Mutex
	idle map[string][]*peerConn // peer address → idle connections, most recently used last
}

// peerConn is one keep-alive connection to a peer with its buffers.
type peerConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// connBufSize sizes each connection's read and write buffers.
const connBufSize = 4 << 10

func newForwarder() *forwarder {
	return &forwarder{dialer: net.Dialer{Timeout: 30 * time.Second}}
}

// RoundTrip implements http.RoundTripper. A cancelled request returns
// its context's error; any other failure goes back to the router's
// failover unchanged, wrapped as http.Client wraps it.
func (f *forwarder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.roundTrip(req)
	if err != nil {
		if ctxErr := req.Context().Err(); ctxErr != nil {
			return nil, ctxErr
		}
		op := req.Method // "POST" → "Post", as http.Client names it
		if op == "" {
			op = http.MethodGet
		}
		return nil, &url.Error{Op: op[:1] + strings.ToLower(op[1:]), URL: req.URL.String(), Err: err}
	}
	return resp, nil
}

func (f *forwarder) roundTrip(req *http.Request) (*http.Response, error) {
	addr := peerAddr(req.URL)
	if pc := f.take(addr); pc != nil {
		resp, early, err := f.exchange(req, addr, pc)
		if err == nil || !early || req.Context().Err() != nil {
			return resp, err
		}
		// The peer closed this idle connection before the request reached
		// it (amdahl-serve's IdleTimeout is 2 min): replay it once on a
		// fresh connection.
		if req.Body != nil && req.Body != http.NoBody {
			if req.GetBody == nil {
				return nil, err
			}
			body, gerr := req.GetBody()
			if gerr != nil {
				return nil, err
			}
			replay := *req
			replay.Body = body
			req = &replay
		}
	}
	conn, err := f.dialer.DialContext(req.Context(), "tcp", addr)
	if err != nil {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, err
	}
	pc := &peerConn{conn: conn, br: bufio.NewReaderSize(conn, connBufSize), bw: bufio.NewWriterSize(conn, connBufSize)}
	resp, _, err := f.exchange(req, addr, pc)
	return resp, err
}

// exchange writes req on pc and reads the response head. On success the
// response body owns pc. On failure pc is closed, and early reports that
// the failure came before any byte of a response arrived.
func (f *forwarder) exchange(req *http.Request, addr string, pc *peerConn) (resp *http.Response, early bool, err error) {
	stop := context.AfterFunc(req.Context(), func() { pc.conn.Close() })
	err = req.Write(pc.bw)
	if err == nil {
		err = pc.bw.Flush()
	}
	if err == nil {
		_, err = pc.br.Peek(1)
	}
	if err != nil {
		stop()
		pc.conn.Close()
		return nil, true, err
	}
	resp, err = http.ReadResponse(pc.br, req)
	if err != nil {
		stop()
		pc.conn.Close()
		return nil, false, err
	}
	resp.Body = &connBody{f: f, addr: addr, pc: pc, body: resp.Body, stop: stop, keep: !resp.Close}
	return resp, false, nil
}

// take pops the most recently used idle connection to addr, or nil.
func (f *forwarder) take(addr string) *peerConn {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.idle[addr]
	if len(s) == 0 {
		return nil
	}
	pc := s[len(s)-1]
	s[len(s)-1] = nil
	f.idle[addr] = s[:len(s)-1]
	return pc
}

// put pushes an idle connection to addr, or closes it when maxInFlight
// are idle already.
func (f *forwarder) put(addr string, pc *peerConn) {
	f.mu.Lock()
	s := f.idle[addr]
	if len(s) < maxInFlight {
		if f.idle == nil {
			f.idle = make(map[string][]*peerConn)
		}
		f.idle[addr] = append(s, pc)
		pc = nil
	}
	f.mu.Unlock()
	if pc != nil {
		pc.conn.Close()
	}
}

// connBody is a forwarded response's body. Read to EOF on a keep-alive
// response, it gives its connection back to the idle stack; closed
// before EOF, after a read error or on a Connection: close response,
// it closes the connection. Read and Close are called from one
// goroutine, as every router path does; a cancellation closes the
// connection from another.
type connBody struct {
	f    *forwarder
	addr string
	pc   *peerConn     // nil once released
	body io.ReadCloser // http.ReadResponse's framing reader over pc.br
	stop func() bool   // unregisters the cancellation hook
	keep bool          // the response allows reuse
	err  error         // what Read returns once released
}

var errBodyClosed = errors.New("fleet: read on closed response body")

func (b *connBody) Read(p []byte) (int, error) {
	if b.pc == nil {
		return 0, b.err
	}
	n, err := b.body.Read(p)
	if err != nil {
		b.release(err)
	}
	return n, err
}

func (b *connBody) Close() error {
	if b.pc != nil {
		b.release(errBodyClosed)
	}
	return nil
}

// release hands the connection back at a clean EOF and closes it on any
// other end. A cancellation hook that already fired has closed it.
func (b *connBody) release(err error) {
	pc := b.pc
	b.pc, b.err = nil, err
	if b.stop() && err == io.EOF && b.keep {
		b.f.put(b.addr, pc)
		return
	}
	pc.conn.Close()
}

// peerAddr is the dial address of a peer URL: host:port, port 80 when
// the URL names none.
func peerAddr(u *url.URL) string {
	if u.Port() != "" {
		return u.Host
	}
	return net.JoinHostPort(u.Hostname(), "80")
}
