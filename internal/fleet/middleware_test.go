package fleet

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wwb/internal/metrics"
)

// errorEnvelope decodes the JSON error body every failure path must
// produce.
func errorEnvelope(t *testing.T, body []byte) string {
	t.Helper()
	var out struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("error body is not a JSON envelope: %v (%q)", err, body)
	}
	if out.Error == "" {
		t.Fatalf("empty error envelope: %q", body)
	}
	return out.Error
}

func TestRecoverPanicsToJSON500(t *testing.T) {
	h := WithMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}), MiddlewareConfig{})
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatalf("connection died on panic: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if msg := errorEnvelope(t, body); !strings.Contains(msg, resp.Header.Get("X-Request-ID")) {
		t.Errorf("500 envelope %q does not carry the request ID", msg)
	}
}

func TestRecoverPanicsReraisesAbortHandler(t *testing.T) {
	// http.ErrAbortHandler is the stdlib contract for "abort the
	// response, kill the connection"; converting it into a JSON 500
	// (as recoverPanics once did) turns a deliberate abort into a
	// half-written success-looking response.
	h := WithMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}), MiddlewareConfig{})
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	rec := httptest.NewRecorder()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	}()
	if recovered != http.ErrAbortHandler {
		t.Fatalf("recovered %v, want http.ErrAbortHandler re-raised", recovered)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("aborted response got a body written: %q", rec.Body.String())
	}

	// An ordinary panic must still become a JSON 500, not propagate.
	h = WithMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}), MiddlewareConfig{})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("plain panic: status %d, want 500", rec.Code)
	}
}

func TestHealthzExemptFromLimiterWhenSaturated(t *testing.T) {
	// A saturated server must still answer its own health check: a
	// load balancer that gets a shed 503 from /healthz would evict a
	// merely-busy instance. Saturate a MaxInFlight=1 stack with a
	// blocked request, then check /healthz and /metrics still answer.
	mux := http.NewServeMux()
	entered := make(chan struct{})
	release := make(chan struct{})
	mux.HandleFunc("GET /slow", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /metrics", metrics.Handler(metrics.Default))
	h := WithMiddleware(mux, MiddlewareConfig{MaxInFlight: 1, RequestTimeout: time.Minute})
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())
	srv := httptest.NewServer(h)
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(srv.URL + "/slow")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // the only slot is now held
	defer func() {
		close(release)
		wg.Wait()
	}()

	// A normal request sheds...
	resp, err := http.Get(srv.URL + "/other")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("normal request on saturated server: status %d, want 503", resp.StatusCode)
	}
	// ...but the health check and the metrics scrape still answer.
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s on saturated server: status %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestInFlightLimiterSheds(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	h := WithMiddleware(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	}), MiddlewareConfig{MaxInFlight: 1})
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())
	srv := httptest.NewServer(h)
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var firstStatus int
	go func() {
		defer wg.Done()
		resp, err := http.Get(srv.URL + "/")
		if err == nil {
			firstStatus = resp.StatusCode
			resp.Body.Close()
		}
	}()
	<-entered // the slot is now taken

	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	errorEnvelope(t, body)

	close(release)
	wg.Wait()
	if firstStatus != http.StatusOK {
		t.Errorf("first request: status %d, want 200", firstStatus)
	}
}

func TestRequestTimeoutOnContext(t *testing.T) {
	sawDeadline := false
	h := WithMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			sawDeadline = context.Cause(r.Context()) == context.DeadlineExceeded
			HTTPError(w, http.StatusServiceUnavailable, "timed out")
		case <-time.After(5 * time.Second):
			w.WriteHeader(http.StatusOK)
		}
	}), MiddlewareConfig{RequestTimeout: 20 * time.Millisecond})
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !sawDeadline {
		t.Error("handler context never hit its deadline")
	}
}

// TestRouteLabelBoundsCardinality pins the label mapping, including
// the fleet endpoints.
func TestRouteLabelBoundsCardinality(t *testing.T) {
	cases := map[string]string{
		"/healthz":              "/healthz",
		"/metrics":              "/metrics",
		"/v1/list":              "/v1/list",
		"/v1/experiment/fig1":   "/v1/experiment/{id}",
		"/v1/experiment/fig999": "/v1/experiment/{id}",
		"/debug/pprof/profile":  "/debug/pprof",
		"/admin/swap":           "/admin/swap",
		"/shard/info":           "/shard/info",
		"/shard/lists":          "other",
		"/random/path":          "other",
		"/v1/unknown":           "other",
	}
	for path, want := range cases {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		if got := routeLabel(r); got != want {
			t.Errorf("routeLabel(%s) = %q, want %q", path, got, want)
		}
	}
	if c := statusClass(204); c != "2xx" {
		t.Errorf("statusClass(204) = %q", c)
	}
	if c := statusClass(503); c != "5xx" {
		t.Errorf("statusClass(503) = %q", c)
	}
}

// TestOpsEndpointsExempt pins which paths bypass the limiter and the
// per-request timeout: /admin/swap must not be shed mid-rollover.
func TestOpsEndpointsExempt(t *testing.T) {
	for path, want := range map[string]bool{
		"/healthz":             true,
		"/metrics":             true,
		"/debug/pprof/profile": true,
		"/admin/swap":          true,
		"/v1/list?country=US":  false,
		"/shard/lists":         false,
	} {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		if got := opsExempt(r); got != want {
			t.Errorf("opsExempt(%s) = %v, want %v", path, got, want)
		}
	}
}

// prevWriter returns the process's default log destination for
// restoring after tests that silence or capture it.
func prevWriter() io.Writer { return logDefaultWriter }

var logDefaultWriter = log.Writer()
