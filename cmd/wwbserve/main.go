// Command wwbserve exposes an assembled study over HTTP+JSON: rank
// lists, distribution curves, per-site popularity profiles, CrUX-style
// public buckets, and rendered experiments. It is the "public dataset
// access" path of the reproduction — what a researcher without the raw
// telemetry would query. With -data it serves a wwbgen .wwb snapshot,
// or a .wwbd delta resolved over its base chain, instead of assembling
// a study.
//
// Endpoints:
//
//	GET /healthz
//	GET /metrics
//	GET /debug/pprof/  (only with -pprof)
//	GET /v1/countries
//	GET /v1/list?country=US&platform=windows&metric=loads&month=2022-02&n=100
//	GET /v1/dist?platform=windows&metric=loads&n=1000
//	GET /v1/site?domain=google.com&platform=windows&metric=loads&month=2022-02
//	GET /v1/crux?country=US
//	GET /v1/experiments
//	GET /v1/experiment/{id}
//
// /healthz, /metrics, and /debug/pprof are exempt from the in-flight
// limiter and the per-request timeout: they must answer precisely
// when the server is saturated.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wwb/internal/chaos"
	"wwb/internal/chrome"
	"wwb/internal/core"
	"wwb/internal/fleet"
	"wwb/internal/metrics"
	"wwb/internal/world"
)

// loadSnapshot is the POST /admin/swap loader: a plain heap decode,
// deliberately not the mmap fast path — a swapped-in mapping would
// have to outlive the request that installed it, and the old epoch's
// pages must stay valid until its last in-flight request drains.
// Heap-decoded datasets make both lifetimes GC-managed. Going through
// DecodeAnyPath means a swap target may be a .wwbd delta, whose base
// chain is resolved relative to the delta's own directory.
func loadSnapshot(path string) (*chrome.Dataset, error) {
	ds, _, err := chrome.DecodeAnyPath(path)
	return ds, err
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("wwbserve: ")

	var (
		addr        = flag.String("addr", "127.0.0.1:8089", "listen address")
		data        = flag.String("data", "", "serve a wwbgen dataset file (.wwb snapshot, or .wwbd delta over its base chain) instead of assembling a study (site categories and experiments unavailable)")
		shardFlag   = flag.String("shard", "", "serve only shard i/N of the dataset's (country, month) cells, e.g. 1/4 (requires -data; fronted by wwbrouter)")
		scale       = flag.String("scale", "small", "universe scale: small, default, large, or huge")
		seed        = flag.Uint64("seed", 42, "world generation seed")
		febOnly     = flag.Bool("feb-only", true, "assemble February only (faster startup)")
		maxInFlight = flag.Int("max-inflight", 64, "max concurrently served requests before shedding with 503 (0 = unlimited)")
		reqTimeout  = flag.Duration("request-timeout", time.Minute, "per-request context deadline (0 = none)")
		chaosSeed   = flag.Uint64("chaos-seed", 0, "fault-injection seed for the categorisation transport (only with -chaos-rate > 0)")
		chaosRate   = flag.Float64("chaos-rate", 0, "fault-injection rate in [0,1] for the categorisation transport; 0 disables chaos")
		pprofFlag   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exempt from limiter and timeout)")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	wcfg, err := world.ConfigForScale(*scale)
	if err != nil {
		log.Fatal(err)
	}
	cfg.World = wcfg
	cfg.World.Seed = *seed
	cfg.Chaos = chaos.Flaky(*chaosSeed, *chaosRate)
	if *febOnly {
		cfg = cfg.FebOnly()
	}

	// Install signal handling before assembly: a Ctrl-C during the
	// (potentially long) study build cancels it promptly instead of
	// being ignored until the server is up.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mcfg := fleet.MiddlewareConfig{MaxInFlight: *maxInFlight, RequestTimeout: *reqTimeout, Pprof: *pprofFlag}
	var shard fleet.Assignment
	if *shardFlag != "" {
		if *data == "" {
			log.Fatal("-shard requires -data: shards serve snapshot slices, not assembled studies")
		}
		shard, err = fleet.ParseAssignment(*shardFlag)
		if err != nil {
			log.Fatal(err)
		}
	}
	var handler http.Handler
	if *data != "" {
		loadStart := time.Now()
		ds, info, err := decodeDataFile(*data)
		if err != nil {
			log.Fatalf("loading %s: %v", *data, err)
		}
		logDatasetLoad(*data, ds, info, time.Since(loadStart))
		srv := newDatasetServer(ds, shard)
		if !shard.Whole() {
			log.Printf("shard %s: serving %d of %d rank lists", shard, srv.Dataset().NumLists(), ds.NumLists())
		}
		log.Printf("serving on http://%s", *addr)
		handler = srv.Routes(mcfg)
	} else {
		log.Printf("assembling %s study (seed %d)...", *scale, *seed)
		if cfg.Chaos.Enabled() {
			log.Printf("chaos enabled: seed %d rate %.2f", cfg.Chaos.Seed, cfg.Chaos.Rate)
		}
		study, err := core.NewCtx(ctx, cfg)
		if err != nil {
			log.Fatalf("assembly aborted: %v", err)
		}
		if summary := metrics.StageSummary(); summary != "" {
			log.Printf("assembly stage timings:\n%s", summary)
		}
		log.Printf("study ready; serving on http://%s", *addr)
		handler = newServer(study).Routes(mcfg)
	}

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
	if err := fleet.Serve(ctx, srv, ln, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	log.Printf("drained, bye")
}

// logDatasetLoad records which artifact this replica is serving: the
// format, the artifact's embedded provenance, and the dataset's own
// assembly options.
func logDatasetLoad(path string, ds *chrome.Dataset, info *chrome.SnapshotInfo, took time.Duration) {
	if info.Format == chrome.FormatWWBD {
		log.Printf("loaded %s: wwbd delta chain of %d over base (producer %q, world seed %d, scale %q) in %s",
			path, info.Chain, info.Provenance.Tool, info.Provenance.WorldSeed,
			info.Provenance.Scale, took.Round(time.Millisecond))
	} else {
		log.Printf("loaded %s: wwb snapshot v%d (tool %q, world seed %d, scale %q) in %s",
			path, info.Version, info.Provenance.Tool, info.Provenance.WorldSeed,
			info.Provenance.Scale, took.Round(time.Millisecond))
	}
	log.Printf("dataset: %d countries, %d months, sampling seed %d, privacy threshold %d, topN %d, dist month %s",
		len(ds.Countries), len(ds.Months), ds.Opts.Seed, ds.Opts.PrivacyThreshold,
		ds.Opts.TopN, ds.Opts.DistMonth)
}
