// Command wwbrouter fronts a fleet of wwbserve shard replicas and
// re-exposes the single-server /v1 API. Single-cell queries are
// proxied to the shard owning their (country, month) cell;
// cross-shard queries (per-site rank profiles, the public bucket
// export) fan out to every shard and merge in canonical order, so
// every response is byte-identical to one unsharded wwbserve holding
// the whole dataset. POST /admin/swap rolls the entire fleet to a new
// dataset artifact with zero downtime.
//
// Topology comes from -shards: semicolon-separated shard groups, each
// a comma-separated replica list, in shard-index order:
//
//	wwbrouter -shards 'http://127.0.0.1:8081;http://127.0.0.1:8082'
//	wwbrouter -shards 'http://a:8081,http://b:8081;http://a:8082,http://b:8082'
//
// The shard count (number of groups) must match the -shard i/N the
// servers were started with.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wwb/internal/chaos"
	"wwb/internal/fleet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wwbrouter: ")

	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		shards      = flag.String("shards", "", "shard topology: replica URLs, ',' between replicas, ';' between shards (required)")
		maxInFlight = flag.Int("max-inflight", 256, "max concurrently served requests before shedding with 503 (0 = unlimited)")
		reqTimeout  = flag.Duration("request-timeout", time.Minute, "per-request context deadline (0 = none)")
		subTimeout  = flag.Duration("shard-timeout", 30*time.Second, "per-sub-request timeout against a shard replica")
		cooldown    = flag.Duration("health-cooldown", 2*time.Second, "how long a replica stays routed-around after a transport failure")
		retryBudget = flag.Int("retry-budget", 3, "sub-request retries allowed per client request across all replicas (fan-outs scale it by shard count)")
		hedgeMax    = flag.Duration("hedge-max", 500*time.Millisecond, "upper clamp on the p99-derived hedge delay for fan-out legs (<0 disables hedging)")
		chaosSeed   = flag.Uint64("chaos-seed", 0, "fault-injection seed for the shard transport (only with -chaos-rate > 0)")
		chaosRate   = flag.Float64("chaos-rate", 0, "fault-injection rate in [0,1] on router-to-shard sub-requests; 0 disables chaos")
	)
	flag.Parse()

	if *shards == "" {
		log.Fatal("-shards is required (e.g. -shards 'http://127.0.0.1:8081;http://127.0.0.1:8082')")
	}
	var topology [][]string
	for _, group := range strings.Split(*shards, ";") {
		var reps []string
		for _, rep := range strings.Split(group, ",") {
			rep = strings.TrimSpace(rep)
			if rep == "" {
				continue
			}
			// Accept bare host:port the way -addr does.
			if !strings.Contains(rep, "://") {
				rep = "http://" + rep
			}
			reps = append(reps, rep)
		}
		topology = append(topology, reps)
	}
	// The chaos transport sits between the router and its shards so the
	// whole resilience stack (budgets, hedges, health gates, checksums)
	// is exercised against deterministic faults; rate 0 wires the real
	// transport untouched.
	tcfg := chaos.FlakyTransport(*chaosSeed, *chaosRate)
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Shards: topology,
		Client: &http.Client{
			Timeout:   *subTimeout,
			Transport: chaos.NewTransport(tcfg, nil),
		},
		HealthCooldown: *cooldown,
		RetryBudget:    *retryBudget,
		HedgeMax:       *hedgeMax,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, reps := range topology {
		log.Printf("shard %d/%d: %s", i, len(topology), strings.Join(reps, ", "))
	}
	if tcfg.Enabled() {
		log.Printf("chaos transport enabled: seed %d rate %.2f", *chaosSeed, *chaosRate)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	handler := rt.Routes(fleet.MiddlewareConfig{MaxInFlight: *maxInFlight, RequestTimeout: *reqTimeout})
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      120 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("routing %d shards on http://%s", rt.NumShards(), *addr)
	if err := fleet.Serve(ctx, srv, ln, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	log.Printf("drained, bye")
}
