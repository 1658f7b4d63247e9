package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"wwb/internal/world"
)

// ErrInjected is the sentinel every transport-level injected fault
// wraps, so load harnesses and tests can tell deliberate chaos from
// real infrastructure failures with errors.Is.
var ErrInjected = fmt.Errorf("chaos: injected transport fault")

// InjectedHeader marks synthetic HTTP responses fabricated by the
// faulty transport (injected 5xx). Real backends never set it.
const InjectedHeader = "X-Chaos-Injected"

// The HTTP fault family, in draw order, and each fault's share of the
// chaos rate.
const (
	// faultRefuse fails the request with a connection-refused error
	// before the backend is contacted (a dead or unreachable replica).
	faultRefuse = 1 + iota
	// fault5xx fabricates a 502 response without contacting the
	// backend (a broken middlebox).
	fault5xx
	// faultTruncate cuts the response body short mid-stream (the read
	// errors with an unexpected EOF).
	faultTruncate
	// faultGarble flips response body bytes in place — same length,
	// corrupt content. Only end-to-end integrity checking
	// (X-Wwb-Checksum) can catch this one.
	faultGarble
	// faultSlow delays the request before letting it through.
	faultSlow
)

var httpShares = []float64{0.30, 0.20, 0.15, 0.15, 0.20}

// slowLatency is the median injected delay: millisecond-scale, so
// chaos runs stay fast under test.
const slowLatency = 2 * time.Millisecond

// Transport is a faulty http.RoundTripper: it wraps a real transport
// and injects refusals, synthetic 5xx, truncated/garbled bodies, and
// latency spikes. The fault for one call is a pure function of
// (seed, host, method+path, attempt), where the attempt number rides
// on the request context (WithAttempt). The transport keeps no state,
// so a request draws the same fault however often its URI was sent
// before, and the whole fleet degrades identically run over run.
type Transport struct {
	inner http.RoundTripper
	sched *Schedule
}

type attemptKey struct{}

// WithAttempt stamps ctx with the 1-based attempt number the fault
// transport schedules a request under. A caller that sends the same
// request again — a hedge, a refetch — stamps the retry with the next
// number so it draws a fresh fault; an unstamped request is attempt 1.
func WithAttempt(ctx context.Context, attempt int) context.Context {
	return context.WithValue(ctx, attemptKey{}, attempt)
}

// attemptOf returns the attempt number stamped on ctx, or 1.
func attemptOf(ctx context.Context) int {
	if n, ok := ctx.Value(attemptKey{}).(int); ok && n > 1 {
		return n
	}
	return 1
}

// NewTransport wraps inner (nil means http.DefaultTransport) with the
// HTTP fault schedule. A config that cannot inject anything returns
// inner unchanged, so callers can wire it unconditionally.
func NewTransport(cfg Config, inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	if !cfg.Enabled() {
		return inner
	}
	return &Transport{
		inner: inner,
		sched: NewSchedule(cfg.Seed^0x7472616e73706f72, cfg.Rate, httpShares...), // "transpor"
	}
}

// opKey identifies one operation: faults are scheduled per
// (host, method, path+query) stream. The shard a request targets is
// part of its host, so per-shard fault schedules are independent.
func opKey(req *http.Request) string {
	return req.URL.Host + " " + req.Method + " " + req.URL.RequestURI()
}

// RoundTrip implements http.RoundTripper with fault injection.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := opKey(req)
	fault, rng := t.decide(op, attemptOf(req.Context()))
	return t.apply(req, fault, rng)
}

// decide draws the fault for one attempt of op, and the RNG its
// effect draws from.
func (t *Transport) decide(op string, attempt int) (int, *world.RNG) {
	fault, _ := t.sched.Decide(op, attempt)
	return fault, t.sched.root.Fork(fmt.Sprintf("%s|#%d|body", op, attempt))
}

// apply performs one request under fault, drawing the fault's
// effect (delay, cut point, flipped bytes) from rng.
func (t *Transport) apply(req *http.Request, fault int, rng *world.RNG) (*http.Response, error) {
	switch fault {
	case faultRefuse:
		return nil, fmt.Errorf("dial %s: connection refused: %w", req.URL.Host, ErrInjected)
	case fault5xx:
		return synthetic5xx(req), nil
	case faultSlow:
		if err := Sleep(req.Context(), SlowDelay(rng, slowLatency)); err != nil {
			return nil, err
		}
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch fault {
	case faultTruncate:
		resp.Body = &truncatingBody{inner: resp.Body, remain: truncateAt(rng, resp.ContentLength)}
	case faultGarble:
		if err := garbleBody(rng, resp); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// synthetic5xx fabricates the injected 502: a JSON envelope so even
// chaos keeps error responses machine-readable, marked with
// InjectedHeader so load harnesses can separate it from real failures.
func synthetic5xx(req *http.Request) *http.Response {
	body := []byte(`{"error":"chaos: injected upstream failure"}` + "\n")
	h := make(http.Header)
	h.Set("Content-Type", "application/json")
	h.Set(InjectedHeader, "1")
	return &http.Response{
		Status:        "502 Bad Gateway",
		StatusCode:    http.StatusBadGateway,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncateAt picks how many body bytes survive: a deterministic
// fraction of the declared length, or a small fixed prefix when the
// length is unknown.
func truncateAt(rng *world.RNG, contentLength int64) int64 {
	if contentLength > 0 {
		return int64(rng.Float64() * float64(contentLength))
	}
	return int64(rng.Intn(64))
}

// truncatingBody yields a prefix of the real body and then fails the
// read the way a torn connection does, so callers that io.ReadAll a
// sub-response see an unexpected EOF rather than a silently short
// success.
type truncatingBody struct {
	inner  io.ReadCloser
	remain int64
}

func (b *truncatingBody) Read(p []byte) (int, error) {
	if b.remain <= 0 {
		return 0, fmt.Errorf("read: %w: %w", io.ErrUnexpectedEOF, ErrInjected)
	}
	if int64(len(p)) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.inner.Read(p)
	b.remain -= int64(n)
	return n, err
}

func (b *truncatingBody) Close() error { return b.inner.Close() }

// garbleBody reads the full response body, flips a handful of bytes
// deterministically, and re-installs it with the original length. The
// corruption is invisible at the HTTP layer — only an end-to-end
// checksum can catch it, which is exactly the failure mode this fault
// exists to exercise.
func garbleBody(rng *world.RNG, resp *http.Response) error {
	body, err := io.ReadAll(resp.Body)
	cerr := resp.Body.Close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	if len(body) > 0 {
		flips := 1 + rng.Intn(3)
		for i := 0; i < flips; i++ {
			pos := rng.Intn(len(body))
			// XOR with a non-zero mask so the byte always changes.
			body[pos] ^= byte(1 + rng.Intn(255))
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
	return nil
}
