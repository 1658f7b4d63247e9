package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"wwb/internal/metrics"
)

// HTTP-layer metrics, exposed on GET /metrics. Routes are labelled by
// pattern, not raw path, so cardinality stays bounded no matter what
// clients request. Shared by every fleet HTTP process (shard servers
// and the router alike).
var (
	mHTTPRequests = metrics.Default.CounterVec(
		"http_requests_total",
		"HTTP requests served, by route pattern and status class.",
		"route", "class")
	mHTTPDuration = metrics.Default.HistogramVec(
		"http_request_duration_seconds",
		"HTTP request handling latency by route pattern.",
		metrics.DefBuckets,
		"route")
	mHTTPInFlight = metrics.Default.Gauge(
		"http_in_flight",
		"Requests currently inside the middleware stack.")
	mHTTPSheds = metrics.Default.Counter(
		"http_sheds_total",
		"Requests shed with 503 by the in-flight limiter.")
	mHTTPPanics = metrics.Default.Counter(
		"http_panics_total",
		"Handler panics converted to JSON 500 responses.")
)

// MiddlewareConfig tunes the hardening stack wrapped around the route
// mux. The zero value disables the limiter and the timeout.
type MiddlewareConfig struct {
	// MaxInFlight bounds concurrently served requests; excess requests
	// are shed immediately with 503 + Retry-After. 0 means unlimited.
	MaxInFlight int
	// RequestTimeout bounds one request's handling via its context.
	// 0 means no per-request deadline.
	RequestTimeout time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ (off by
	// default: profiling endpoints are opt-in).
	Pprof bool
}

// opsExempt reports whether a request bypasses the in-flight limiter
// and the per-request timeout. Health checks must answer 200 on a
// merely-busy server — a load balancer that gets a shed 503 from
// /healthz would evict a healthy instance — the observability
// endpoints (/metrics scrapes, pprof profiles that legitimately run
// for 30s) are exactly what an operator needs while the server is
// saturated, and /admin/swap must not be shed or deadline-killed
// mid-rollover precisely when the fleet is busiest.
func opsExempt(r *http.Request) bool {
	p := r.URL.Path
	return p == "/healthz" || p == "/metrics" ||
		strings.HasPrefix(p, "/debug/pprof") || strings.HasPrefix(p, "/admin/")
}

// routeLabel maps a request to its route pattern for metric labels.
// Unknown paths collapse into "other" so a path-scanning client
// cannot blow up series cardinality.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch p {
	case "/healthz", "/metrics",
		"/v1/countries", "/v1/list", "/v1/dist", "/v1/site", "/v1/crux", "/v1/experiments",
		"/admin/swap", "/shard/info":
		return p
	}
	switch {
	case strings.HasPrefix(p, "/v1/experiment/"):
		return "/v1/experiment/{id}"
	case strings.HasPrefix(p, "/debug/pprof"):
		return "/debug/pprof"
	default:
		return "other"
	}
}

// statusClass buckets a status code into 2xx/3xx/4xx/5xx.
func statusClass(status int) string {
	return strconv.Itoa(status/100) + "xx"
}

// statusRecorder wraps a ResponseWriter to capture the status code and
// body size for the request log. A handler that never calls
// WriteHeader implicitly sends 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// Flush keeps streaming handlers working through the wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestIDKey carries the request ID in the request context.
type requestIDKey struct{}

var requestCounter atomic.Uint64

// RequestID returns the ID assigned to the request, or "-".
func RequestID(ctx context.Context) string {
	if id, ok := ctx.Value(requestIDKey{}).(string); ok {
		return id
	}
	return "-"
}

// WithMiddleware wraps a route mux in the hardening stack, outermost
// first: request-ID assignment, request logging (status, bytes,
// duration), metrics instrumentation, panic recovery, the in-flight
// limiter, and the per-request timeout. Ordering matters — the logger
// and the instrumentation sit outside recovery and the limiter so
// 500s and 503s appear in the log and the counters with their final
// status.
func WithMiddleware(next http.Handler, cfg MiddlewareConfig) http.Handler {
	h := next
	h = checksumResponses(h)
	h = timeoutRequests(h, cfg.RequestTimeout)
	h = limitInFlight(h, cfg.MaxInFlight)
	h = recoverPanics(h)
	h = instrumentRequests(h)
	h = logRequests(h)
	h = assignRequestID(h)
	return h
}

// assignRequestID tags every request with a process-unique ID, echoed
// in the X-Request-ID response header and threaded through the context
// for the logger and error paths.
func assignRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("req-%06d", requestCounter.Add(1))
		w.Header().Set("X-Request-ID", id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
	})
}

// logRequests writes one line per request with method, path, status,
// response bytes, duration, and request ID.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		log.Printf("%s %s %d %dB %s %s",
			r.Method, r.URL, rec.status, rec.bytes,
			time.Since(start).Round(time.Microsecond), RequestID(r.Context()))
	})
}

// instrumentRequests records the per-route request counter, latency
// histogram, and the in-flight gauge. It sits outside the recovery
// and shedding layers so panic 500s and limiter 503s are counted like
// any other response.
func instrumentRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeLabel(r)
		mHTTPInFlight.Inc()
		defer mHTTPInFlight.Dec()
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		mHTTPRequests.With(route, statusClass(rec.status)).Inc()
		mHTTPDuration.With(route).Observe(time.Since(start).Seconds())
	})
}

// recoverPanics converts a handler panic into a JSON 500 instead of
// killing the connection (and, for the default http.Server, logging a
// raw stack trace as the only evidence). The response is best-effort:
// if the handler already wrote a partial body, the envelope is
// appended, but the connection survives either way.
//
// http.ErrAbortHandler is re-raised untouched: it is the stdlib's
// sentinel for "abort this response and drop the connection" (e.g. a
// reverse proxy whose client went away), and converting it to a JSON
// 500 would turn a deliberate abort into a bogus success-looking
// response on a connection the handler wanted dead.
func recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if err, ok := v.(error); ok && errors.Is(err, http.ErrAbortHandler) {
					panic(v)
				}
				mHTTPPanics.Inc()
				log.Printf("panic serving %s %s (%s): %v", r.Method, r.URL, RequestID(r.Context()), v)
				HTTPError(w, http.StatusInternalServerError, "internal error (request %s)", RequestID(r.Context()))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// limitInFlight sheds load once max requests are already being served:
// excess requests get an immediate 503 with Retry-After instead of
// queueing behind a saturated server. Requests opsExempt recognises
// (health checks, metrics scrapes, pprof, admin) bypass the limiter:
// they must keep answering precisely when the server is saturated.
// max <= 0 disables the limiter.
func limitInFlight(next http.Handler, max int) http.Handler {
	if max <= 0 {
		return next
	}
	sem := make(chan struct{}, max)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if opsExempt(r) {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			next.ServeHTTP(w, r)
		default:
			mHTTPSheds.Inc()
			w.Header().Set("Retry-After", "1")
			HTTPError(w, http.StatusServiceUnavailable, "server at capacity (%d in flight)", max)
		}
	})
}

// checksummedWriter buffers a handler's response so its body checksum
// can be stamped into the headers before anything reaches the wire. A
// handler serving a pre-rendered response hands it over in pre instead
// (writeRendered): its checksum is already known.
type checksummedWriter struct {
	w      http.ResponseWriter
	status int
	body   bytes.Buffer
	pre    *rendered
}

func (c *checksummedWriter) Header() http.Header { return c.w.Header() }

func (c *checksummedWriter) WriteHeader(status int) {
	if c.status == 0 {
		c.status = status
	}
}

func (c *checksummedWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	return c.body.Write(p)
}

// checksumResponses is the innermost middleware: it buffers the
// handler's response, stamps ChecksumHeader with the body CRC-32C,
// and only then writes status and body out. The router verifies the
// checksum on every sub-response, which is what turns an in-flight
// body corruption (chaos garble, flaky proxy, bad NIC) into a
// retryable transport failure instead of a silently wrong merge.
// Ops endpoints are exempt: pprof streams for 30s and must not be
// buffered. A pre-rendered or proxied response is written through with
// its known checksum, unbuffered. Content-Length is always set, so a
// reader can size its buffer once and a short body is detectable.
func checksumResponses(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if opsExempt(r) {
			next.ServeHTTP(w, r)
			return
		}
		cw := &checksummedWriter{w: w}
		next.ServeHTTP(cw, r)
		if cw.status == 0 {
			cw.status = http.StatusOK
		}
		var body []byte
		if cw.pre != nil {
			body = cw.pre.body
			w.Header().Set(ChecksumHeader, cw.pre.sum)
		} else {
			body = cw.body.Bytes()
			w.Header().Set(ChecksumHeader, BodyChecksum(body))
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(cw.status)
		w.Write(body)
	})
}

// timeoutRequests derives a deadline onto every request's context so
// context-aware work started by a handler is abandoned when the
// request has taken too long. Ops endpoints are exempt (a pprof CPU
// profile legitimately takes 30s). d <= 0 disables the deadline.
func timeoutRequests(next http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if opsExempt(r) {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
