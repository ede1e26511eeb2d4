package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records one span per layer boundary the benchmark can
// reach from outside the program: the caller itself ("client"), the
// router handler ("fleet.router"), the router's outbound forward
// ("fleet.forward", a RoundTripper passed as RouterOptions.Client) and
// each replica handler ("service.server"). Spans stay in memory and are
// analysed when the run ends. Spans inside the program (stage timers)
// are not part of this benchmark.

// spanHeader carries "<trace>-<span>" (hex) from one boundary to the
// next across an HTTP hop.
const spanHeader = "X-Perfbench-Span"

// spanRef names a span and the request (trace) it belongs to.
type spanRef struct{ trace, id uint64 }

func (r spanRef) header() string {
	return strconv.FormatUint(r.trace, 16) + "-" + strconv.FormatUint(r.id, 16)
}

func parseSpanHeader(h string) (spanRef, bool) {
	t, s, ok := strings.Cut(h, "-")
	if !ok {
		return spanRef{}, false
	}
	trace, err1 := strconv.ParseUint(t, 16, 64)
	id, err2 := strconv.ParseUint(s, 16, 64)
	if err1 != nil || err2 != nil || trace == 0 || id == 0 {
		return spanRef{}, false
	}
	return spanRef{trace, id}, true
}

type spanCtxKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanCtxKey{}).(spanRef)
	return ref, ok
}

// span is one recorded interval. Times are offsets from the recorder's
// epoch on the monotonic clock.
type span struct {
	name       string
	trace      uint64
	id, parent uint64
	start, end time.Duration
}

func (s span) ref() spanRef { return spanRef{s.trace, s.id} }

// recorder keeps finished spans in memory.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span under parent; a zero parent starts a new trace whose
// ID is the span's own.
func (r *recorder) start(name string, parent spanRef) span {
	id := r.ids.Add(1)
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	return span{name: name, trace: trace, id: id, parent: parent.id, start: time.Since(r.epoch)}
}

func (r *recorder) finish(s span) {
	s.end = time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// wrapHandler records a span called name around h for every request that
// carries a span header, and hands the new span to h in the request
// context. Requests without the header (health probes, untraced phases)
// pass through untouched.
func (r *recorder) wrapHandler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, ok := parseSpanHeader(req.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, req)
			return
		}
		s := r.start(name, parent)
		h.ServeHTTP(w, req.WithContext(withSpan(req.Context(), s.ref())))
		r.finish(s)
	})
}

// tracingTransport records a "fleet.forward" span for each outbound
// request whose context carries a span, stamping the new span on a
// clone of the request so the replica can link to it. The span ends when
// the response body is closed, so it covers a streamed sweep entirely.
type tracingTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := spanFrom(req.Context())
	if !ok {
		return t.base.RoundTrip(req)
	}
	s := t.rec.start("fleet.forward", parent)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, s.ref().header())
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		t.rec.finish(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, finish: func() { t.rec.finish(s) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once   sync.Once
	finish func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.finish)
	return err
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children cover. Children are clipped to the parent's
// interval and overlapping children are counted once.
func selfTimes(spans []span) map[uint64]time.Duration {
	type iv struct{ lo, hi time.Duration }
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.id] = s
	}
	kids := make(map[uint64][]iv)
	for _, s := range spans {
		p, ok := byID[s.parent]
		if !ok {
			continue
		}
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			kids[p.id] = append(kids[p.id], iv{lo, hi})
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.id]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered := time.Duration(0)
		var cur iv
		for i, v := range ivs {
			switch {
			case i == 0:
				cur = v
			case v.lo <= cur.hi:
				cur.hi = max(cur.hi, v.hi)
			default:
				covered += cur.hi - cur.lo
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.hi - cur.lo
		}
		out[s.id] = s.end - s.start - covered
	}
	return out
}

// alternate splits a traced run's window into four quarters, untraced
// and traced in turn, so drift over the run does not masquerade as
// tracing overhead.
func alternate(seconds int, untraced, traced func(time.Duration)) {
	q := time.Duration(seconds) * time.Second / 4
	for i := 0; i < 2; i++ {
		untraced(q)
		traced(q)
	}
}
