package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wwb/internal/world"
)

// TestTransportDeterministicSchedule: the fault drawn for an
// (op, attempt) pair is a pure function of the seed — two transports
// with the same config agree on every pair, and a different seed
// produces a different schedule.
func TestTransportDeterministicSchedule(t *testing.T) {
	cfg := FlakyTransport(7, 0.5)
	a := NewTransport(cfg, http.DefaultTransport).(*Transport)
	b := NewTransport(cfg, http.DefaultTransport).(*Transport)
	ops := []string{
		"127.0.0.1:8081 GET /v1/list?country=US",
		"127.0.0.1:8082 GET /v1/list?country=US",
		"127.0.0.1:8081 GET /shard/lists",
	}
	diffs := 0
	other := NewTransport(FlakyTransport(8, 0.5), http.DefaultTransport).(*Transport)
	fault := func(t *Transport, op string, attempt int) int {
		f, _ := t.decide(op, attempt)
		return f
	}
	for _, op := range ops {
		for attempt := 1; attempt <= 50; attempt++ {
			fa, fb := fault(a, op, attempt), fault(b, op, attempt)
			if fa != fb {
				t.Fatalf("%s#%d: schedule disagrees across identical transports: %d vs %d", op, attempt, fa, fb)
			}
			if fa != fault(other, op, attempt) {
				diffs++
			}
		}
	}
	if diffs == 0 {
		t.Fatal("seeds 7 and 8 produced identical 150-draw schedules; seed is not keying the faults")
	}
	// The two hosts must fault independently: same path, different
	// shard, different schedule somewhere in 50 attempts.
	hostDiffs := 0
	for attempt := 1; attempt <= 50; attempt++ {
		if fault(a, ops[0], attempt) != fault(a, ops[1], attempt) {
			hostDiffs++
		}
	}
	if hostDiffs == 0 {
		t.Fatal("shard host is not part of the fault key")
	}
}

// TestTransportRateZeroPassesThrough: rate 0 returns the inner
// transport unchanged — the fault-free path has no wrapper at all.
func TestTransportRateZeroPassesThrough(t *testing.T) {
	inner := http.DefaultTransport
	if got := NewTransport(FlakyTransport(1, 0), inner); got != inner {
		t.Fatalf("rate 0 wrapped the transport: %T", got)
	}
	if got := NewTransport(FlakyTransport(0, 0), nil); got != http.DefaultTransport {
		t.Fatalf("rate 0 over a nil transport: %T, want http.DefaultTransport", got)
	}
}

// TestTransportFaultKinds applies each fault to a live backend request
// and checks the caller-visible failure mode.
func TestTransportFaultKinds(t *testing.T) {
	const payload = "0123456789abcdef0123456789abcdef"
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, payload)
	}))
	defer backend.Close()

	kinds := []struct {
		name  string
		fault int
		fn    func(t *testing.T, resp *http.Response, body []byte, readErr, rtErr error)
	}{
		{"refuse", faultRefuse, func(t *testing.T, resp *http.Response, _ []byte, _, rtErr error) {
			if rtErr == nil {
				t.Fatal("refusal did not error")
			}
			if !errors.Is(rtErr, ErrInjected) {
				t.Fatalf("refusal error %v does not wrap ErrInjected", rtErr)
			}
		}},
		{"err5xx", fault5xx, func(t *testing.T, resp *http.Response, body []byte, readErr, rtErr error) {
			if rtErr != nil || resp.StatusCode != http.StatusBadGateway {
				t.Fatalf("synthetic 5xx: resp %v err %v", resp, rtErr)
			}
			if resp.Header.Get(InjectedHeader) != "1" {
				t.Fatal("synthetic 5xx missing the injected marker header")
			}
			if !strings.Contains(string(body), "chaos") {
				t.Fatalf("synthetic body %q is not the chaos envelope", body)
			}
		}},
		{"truncate", faultTruncate, func(t *testing.T, resp *http.Response, body []byte, readErr, rtErr error) {
			if rtErr != nil {
				t.Fatalf("truncate failed the round trip itself: %v", rtErr)
			}
			if readErr == nil {
				t.Fatalf("truncated body read cleanly (%d bytes of %d)", len(body), len(payload))
			}
			if !errors.Is(readErr, ErrInjected) || !errors.Is(readErr, io.ErrUnexpectedEOF) {
				t.Fatalf("truncation error %v should wrap ErrInjected and ErrUnexpectedEOF", readErr)
			}
		}},
		{"garble", faultGarble, func(t *testing.T, resp *http.Response, body []byte, readErr, rtErr error) {
			if rtErr != nil || readErr != nil {
				t.Fatalf("garble must look like a clean response: rt %v read %v", rtErr, readErr)
			}
			if len(body) != len(payload) {
				t.Fatalf("garble changed the length: %d vs %d", len(body), len(payload))
			}
			if string(body) == payload {
				t.Fatal("garble left the body intact")
			}
		}},
		{"slow", faultSlow, func(t *testing.T, resp *http.Response, body []byte, readErr, rtErr error) {
			if rtErr != nil || readErr != nil || string(body) != payload {
				t.Fatalf("slow must succeed with the real body: rt %v read %v body %q", rtErr, readErr, body)
			}
		}},
	}
	tr := &Transport{inner: http.DefaultTransport}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, backend.URL+"/payload", nil)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			resp, rtErr := tr.apply(req, k.fault, world.NewRNG(1).Fork(k.name))
			if k.fault == faultSlow && time.Since(start) < slowLatency/2 {
				t.Errorf("slow fault returned after %s, under half the median delay", time.Since(start))
			}
			var body []byte
			var readErr error
			if rtErr == nil {
				body, readErr = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			k.fn(t, resp, body, readErr, rtErr)
		})
	}
}

// TestTransportFaultIndependentOfHistory: a request's fault depends
// only on the request and its stamped attempt number — never on how
// often the transport has sent that URI before. The same request draws
// the same fault on a fresh transport and on one that has already sent
// it many times, and a request stamped WithAttempt(k) draws exactly the
// schedule's fault for attempt k.
func TestTransportFaultIndependentOfHistory(t *testing.T) {
	const payload = "0123456789abcdef0123456789abcdef"
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	}))
	defer backend.Close()

	cfg := FlakyTransport(3, 0.5)
	// outcome sends one request and names what the caller saw; slow
	// and unfaulted requests both look like a clean "ok".
	outcome := func(rt http.RoundTripper, uri string, attempt int) string {
		req, err := http.NewRequestWithContext(WithAttempt(context.Background(), attempt), http.MethodGet, backend.URL+uri, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := rt.RoundTrip(req)
		if err != nil {
			return "refuse"
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.Header.Get(InjectedHeader) == "1":
			return "err5xx"
		case err != nil:
			return "truncate"
		case string(body) != payload:
			return "garble"
		}
		return "ok"
	}
	expected := map[int]string{0: "ok", faultRefuse: "refuse", fault5xx: "err5xx",
		faultTruncate: "truncate", faultGarble: "garble", faultSlow: "ok"}

	warm := NewTransport(cfg, nil).(*Transport)
	for i := 0; i < 30; i++ {
		uri := fmt.Sprintf("/v1/list?country=US&n=%d", i)
		fresh := outcome(NewTransport(cfg, nil), uri, 1)
		for j := 0; j < 10; j++ {
			outcome(warm, uri, 1)
		}
		if got := outcome(warm, uri, 1); got != fresh {
			t.Fatalf("%s: %s after 10 prior sends, %s on a fresh transport", uri, got, fresh)
		}
		op := strings.TrimPrefix(backend.URL, "http://") + " GET " + uri
		for attempt := 1; attempt <= 3; attempt++ {
			f, _ := warm.decide(op, attempt)
			if got := outcome(warm, uri, attempt); got != expected[f] {
				t.Fatalf("%s attempt %d: %s, schedule says %s", uri, attempt, got, expected[f])
			}
		}
	}
}
