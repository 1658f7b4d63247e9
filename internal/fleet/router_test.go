package fleet

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// deadBaseURL returns a base URL nothing listens on: a started-then-
// closed test server, so the port was real but now refuses connections.
func deadBaseURL(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.NotFoundHandler())
	base := ts.URL
	ts.Close()
	return base
}

// countingServer wraps a full shard server and counts requests served.
func countingServer(t *testing.T, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	inner := NewServer(fleetDS, ServerConfig{Month: fleetDS.Opts.DistMonth}).Routes(MiddlewareConfig{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterRetriesDownedReplica proves the replica failure path: with
// a dead replica first in the rotation, the router retries the request
// on the healthy sibling (visible in fleet_replica_retries_total), and
// the health gate keeps the dead replica out of rotation afterwards so
// no further retries are spent on it during the cooldown.
func TestRouterRetriesDownedReplica(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	var healthyHits atomic.Int64
	healthy := countingServer(t, &healthyHits)
	dead := deadBaseURL(t)

	rt, err := NewRouter(RouterConfig{
		Shards:         [][]string{{dead, healthy.URL}},
		HealthCooldown: time.Minute, // keep the gate closed for the whole test
	})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Routes(MiddlewareConfig{}))
	defer router.Close()

	before := mReplicaRetries.Value()

	// First request: the rotation starts at the dead replica, the
	// transport failure marks it down, and the retry lands on the
	// healthy one.
	status, _, body := fetch(t, router.URL, "/v1/dist?n=5")
	if status != http.StatusOK {
		t.Fatalf("first request through dead replica: status %d (%s)", status, body)
	}
	afterFirst := mReplicaRetries.Value()
	if afterFirst != before+1 {
		t.Errorf("fleet_replica_retries_total moved %d -> %d across the failure, want +1",
			before, afterFirst)
	}

	// While the gate holds, every request goes straight to the healthy
	// replica: all succeed, and the retry counter does not move.
	for i := 0; i < 6; i++ {
		if status, _, body := fetch(t, router.URL, "/v1/dist?n=5"); status != http.StatusOK {
			t.Fatalf("request %d during cooldown: status %d (%s)", i, status, body)
		}
	}
	if got := mReplicaRetries.Value(); got != afterFirst {
		t.Errorf("retries kept climbing during cooldown: %d -> %d; dead replica not gated",
			afterFirst, got)
	}
	if healthyHits.Load() < 7 {
		t.Errorf("healthy replica served %d requests, want all 7", healthyHits.Load())
	}
}

// TestRouterRetriesShedReplicaWithoutGating: a 503 from a replica is a
// capacity signal, not a death certificate — the router must try the
// sibling for that request but keep the shedding replica in rotation.
func TestRouterRetriesShedReplicaWithoutGating(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	var shedHits, healthyHits atomic.Int64
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shedHits.Add(1)
		w.Header().Set("Retry-After", "1")
		HTTPError(w, http.StatusServiceUnavailable, "at capacity")
	}))
	defer shedding.Close()
	healthy := countingServer(t, &healthyHits)

	rt, err := NewRouter(RouterConfig{Shards: [][]string{{shedding.URL, healthy.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Routes(MiddlewareConfig{}))
	defer router.Close()

	before := mReplicaRetries.Value()
	const reqs = 6
	for i := 0; i < reqs; i++ {
		if status, _, body := fetch(t, router.URL, "/v1/dist?n=5"); status != http.StatusOK {
			t.Fatalf("request %d: status %d (%s) — shed replica not retried", i, status, body)
		}
	}
	if healthyHits.Load() != reqs {
		t.Errorf("healthy replica served %d of %d requests", healthyHits.Load(), reqs)
	}
	// Rotation alternates the starting replica, so roughly half the
	// requests hit the shedding one first; each of those costs a retry.
	// Crucially it keeps being tried: no health gate on 503.
	if shedHits.Load() < 2 {
		t.Errorf("shedding replica hit %d times; it was gated out of rotation", shedHits.Load())
	}
	if got := mReplicaRetries.Value(); got < before+2 {
		t.Errorf("fleet_replica_retries_total moved %d -> %d, want at least +2", before, got)
	}
}

// TestRouterForwardsShedWhenAllReplicasShed: when every replica sheds,
// the router forwards the 503 verbatim, Retry-After included, so the
// client's backoff logic works unchanged through the fleet.
func TestRouterForwardsShedWhenAllReplicasShed(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	shedHandler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		HTTPError(w, http.StatusServiceUnavailable, "at capacity")
	})
	a, b := httptest.NewServer(shedHandler), httptest.NewServer(shedHandler)
	defer a.Close()
	defer b.Close()

	rt, err := NewRouter(RouterConfig{Shards: [][]string{{a.URL, b.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Routes(MiddlewareConfig{}))
	defer router.Close()

	resp, err := http.Get(router.URL + "/v1/dist?n=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want forwarded 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Errorf("Retry-After %q not forwarded", resp.Header.Get("Retry-After"))
	}
}

// TestRouterReportsGatewayErrorWhenShardUnreachable: a shard with no
// live replica at all degrades to an explicit 503 with Retry-After and
// the dark shard attributed in the envelope — partial degradation is
// loud and machine-readable, never anonymous gateway noise.
func TestRouterReportsGatewayErrorWhenShardUnreachable(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	rt, err := NewRouter(RouterConfig{Shards: [][]string{{deadBaseURL(t)}}})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Routes(MiddlewareConfig{}))
	defer router.Close()

	resp, err := http.Get(router.URL + "/v1/dist?n=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 for an unreachable shard", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded response is missing Retry-After")
	}
	var env map[string]string
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("degraded body is not a JSON envelope: %v (%q)", err, body)
	}
	if !strings.Contains(env["error"], "shard 0") {
		t.Errorf("degraded envelope %q does not attribute shard 0", env["error"])
	}
}
