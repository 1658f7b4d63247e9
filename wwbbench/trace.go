package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records spans from the harness's own wrappers around the
// calls it makes into each layer; nothing inside the program is
// instrumented. Spans stay in memory until the run ends. A disabled
// tracer hands out zero spans whose End is a no-op, so untraced runs pay
// one branch per wrapper.

// Headers that carry the parent span and request ID across an HTTP hop.
// Only the harness's own handler wrappers read them.
const (
	parentHeader = "X-Wwbbench-Parent"
	reqHeader    = "X-Wwbbench-Req"
)

// span is one finished interval. Times are nanoseconds since the
// tracer's epoch; req groups the spans of one client request (or one
// batch phase).
type span struct {
	id, parent int64
	req        int64
	name       string
	detail     string // the route, experiment ID or chain depth
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

type tracer struct {
	on    bool
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// active is an open span.
type active struct {
	t     *tracer
	s     span
	ended atomic.Bool
}

// start opens a span; on a disabled tracer it returns nil, which End
// and ID accept.
func (t *tracer) start(name, detail string, parent, req int64) *active {
	if t == nil || !t.on {
		return nil
	}
	return &active{t: t, s: span{
		id: t.ids.Add(1), parent: parent, req: req,
		name: name, detail: detail,
		start: int64(time.Since(t.epoch)),
	}}
}

// End closes the span once; later calls are ignored, so a body wrapper
// may end it from both Read and Close.
func (a *active) End() {
	if a == nil || !a.ended.CompareAndSwap(false, true) {
		return
	}
	a.s.end = int64(time.Since(a.t.epoch))
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// ID returns the span's ID, 0 for a nil span.
func (a *active) ID() int64 {
	if a == nil {
		return 0
	}
	return a.s.id
}

// Req returns the span's request ID, 0 for a nil span.
func (a *active) Req() int64 {
	if a == nil {
		return 0
	}
	return a.s.req
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// reset drops the recorded spans.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its wall duration, measured
// whether or not the tracer is on.
func (t *tracer) timed(name, detail string, fn func()) time.Duration {
	sp := t.start(name, detail, 0, 0)
	begin := time.Now()
	fn()
	d := time.Since(begin)
	sp.End()
	return d
}

// spanKey carries the open server-side span in a request context, so
// sub-requests the router makes while serving it find their parent.
type spanKey struct{}

// handlerSpans wraps the handler a Server or Router returns from Routes
// with one span per request named layer, parented to the span the
// caller stamped on the request.
func (t *tracer) handlerSpans(layer string, next http.Handler) http.Handler {
	if t == nil || !t.on {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(parentHeader), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		sp := t.start(layer, r.URL.Path, parent, req)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, sp)))
		sp.End()
	})
}

// spanTransport is the RoundTripper handed to the router as its shard
// client: one span per sub-request, from dispatch until the body is
// closed, stamped on the request so the shard's span can find it.
type spanTransport struct {
	t     *tracer
	inner http.RoundTripper
}

func (st spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	parent, _ := r.Context().Value(spanKey{}).(*active)
	sp := st.t.start("subreq", r.URL.Path, parent.ID(), parent.Req())
	if sp != nil {
		r = r.Clone(r.Context())
		r.Header.Set(parentHeader, strconv.FormatInt(sp.ID(), 10))
		r.Header.Set(reqHeader, strconv.FormatInt(sp.Req(), 10))
	}
	resp, err := st.inner.RoundTrip(r)
	if err != nil || sp == nil {
		sp.End()
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	sp *active
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.sp.End()
	return err
}

// interval is a half-open [start, end) range in tracer nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping intervals once.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, iv := range clipped {
		if iv.start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// spanTree indexes spans by ID and by parent.
type spanTree struct {
	byID     map[int64]span
	children map[int64][]span
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{byID: make(map[int64]span, len(spans)), children: map[int64][]span{}}
	for _, s := range spans {
		t.byID[s.id] = s
		if s.parent != 0 {
			t.children[s.parent] = append(t.children[s.parent], s)
		}
	}
	return t
}

// selfTime is the span's duration minus the part its direct children
// cover, overlapping children merged.
func (t *spanTree) selfTime(s span) int64 {
	kids := t.children[s.id]
	ivs := make([]interval, len(kids))
	for i, k := range kids {
		ivs[i] = interval{k.start, k.end}
	}
	return s.dur() - covered(s.start, s.end, ivs)
}

// descendants returns every span below s.
func (t *spanTree) descendants(s span) []span {
	var out []span
	stack := []int64{s.id}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range t.children[id] {
			out = append(out, k)
			stack = append(stack, k.id)
		}
	}
	return out
}
