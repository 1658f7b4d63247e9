package main

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"wwb/internal/chaos"
	"wwb/internal/core"
	"wwb/internal/fleet"
	"wwb/internal/metrics"
)

// shedCounter looks up the process-wide shed counter the fleet
// middleware registers; re-registering the same name and type returns
// the identical counter.
func shedCounter() interface{ Value() uint64 } {
	return metrics.Default.Counter("http_sheds_total",
		"Requests shed with 503 by the in-flight limiter.")
}

// scrape fetches and returns the /metrics exposition text.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts the value of the first sample line matching
// the series prefix (name or name{labels...}), or -1 when absent.
func metricValue(text, prefix string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		return v
	}
	return -1
}

// TestMetricsEndToEndChaos drives a chaos-seeded study through the
// full serving stack and asserts /metrics reflects what happened:
// requests served per route, limiter sheds, and the categorisation
// client's retries, degradations, and breaker transitions.
func TestMetricsEndToEndChaos(t *testing.T) {
	cfg := core.SmallConfig().FebOnly()
	cfg.Workers = 2
	// Full-rate chaos: attempts succeed only via Slow faults, so most
	// lookups exhaust their budget, degrade, and trip the breaker.
	cfg.Chaos = chaos.Flaky(7, 1.0)
	study := core.New(cfg)

	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())
	srv := httptest.NewServer(newServer(study).Routes(fleet.MiddlewareConfig{MaxInFlight: 8}))
	defer srv.Close()

	before := scrape(t, srv.URL)

	// Serve a categorising request: every entry resolves through the
	// resilient client under injected faults.
	resp, err := http.Get(srv.URL + "/v1/list?country=US&platform=windows&metric=loads&n=100")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	if st := study.Client.Stats(); st.Degraded == 0 {
		t.Fatalf("chaos run produced no degradations (stats %+v); the e2e assertions below would be vacuous", st)
	}
	if snap := study.Client.Breaker().Snapshot(); snap.Opens == 0 {
		t.Fatalf("breaker never opened under full-rate chaos: %+v", snap)
	}

	after := scrape(t, srv.URL)

	// Required families, all non-comment sample lines present.
	for _, family := range []string{
		"http_requests_total", "http_request_duration_seconds", "http_in_flight",
		"http_sheds_total", "catapi_attempts_total", "catapi_retries_total",
		"catapi_degraded_total", "catapi_breaker_transitions_total",
		"parallel_tasks_started_total", "wwb_stage_seconds_total",
	} {
		if !strings.Contains(after, "# TYPE "+family+" ") {
			t.Errorf("/metrics missing family %s", family)
		}
	}

	// The list request must show up in the per-route counter and the
	// latency histogram.
	listCount := metricValue(after, `http_requests_total{route="/v1/list",class="2xx"}`)
	if listCount < 1 {
		t.Errorf("http_requests_total for /v1/list 2xx = %v, want >= 1", listCount)
	}
	if v := metricValue(after, `http_request_duration_seconds_count{route="/v1/list"}`); v < 1 {
		t.Errorf("latency histogram count for /v1/list = %v, want >= 1", v)
	}

	// The chaos traffic must be visible: degradations, retries, and at
	// least one breaker-open transition beyond the pre-request scrape.
	for _, series := range []string{
		"catapi_degraded_total",
		"catapi_retries_total",
		`catapi_breaker_transitions_total{to="open"}`,
	} {
		b, a := metricValue(before, series), metricValue(after, series)
		if a <= 0 || a <= b {
			t.Errorf("%s = %v (was %v), want an increase", series, a, b)
		}
	}

	// Scrapes themselves are counted once the second scrape sees the
	// first.
	if v := metricValue(after, `http_requests_total{route="/metrics",class="2xx"}`); v < 1 {
		t.Errorf("scrape not counted: %v", v)
	}
}

// TestMetricsReflectsSheds saturates a limiter and checks the shed
// shows up on a scrape (the counter is process-wide, so assert on the
// delta).
func TestMetricsReflectsSheds(t *testing.T) {
	before := shedCounter().Value()

	entered := make(chan struct{})
	release := make(chan struct{})
	h := fleet.WithMiddleware(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	}), fleet.MiddlewareConfig{MaxInFlight: 1})
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())
	srv := httptest.NewServer(h)
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(srv.URL + "/")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(release)
	<-done
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := shedCounter().Value(); got != before+1 {
		t.Errorf("http_sheds_total = %d, want %d", got, before+1)
	}

	// And the shed request is classified 5xx under the synthetic
	// "other" route in the exposition.
	ms := httptest.NewServer(newServer(testStudyForDataset).Routes(fleet.MiddlewareConfig{}))
	defer ms.Close()
	text := scrape(t, ms.URL)
	if v := metricValue(text, `http_requests_total{route="other",class="5xx"}`); v < 1 {
		t.Errorf(`http_requests_total{route="other",class="5xx"} = %v, want >= 1`, v)
	}
}
