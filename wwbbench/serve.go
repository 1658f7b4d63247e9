package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wwb/internal/chaos"
	"wwb/internal/chrome"
	"wwb/internal/crux"
	"wwb/internal/fleet"
	"wwb/internal/world"
)

// load is a serving run's request sequence, cut into a warm-up block
// and the timed rounds, with the reference answer for every path.
type load struct {
	warm                []string
	latency, throughput [][]string
	refs                map[string]reference
}

// newLoad draws the request sequence from the wwbload generator with
// its rosters (the dataset's countries and months, and the head of the
// first country's rank list) and answers every distinct path from a
// single unsharded server over ds: the bytes every response must match.
func newLoad(cfg config, ds *chrome.Dataset, g *gate) *load {
	var domains []string
	for _, e := range ds.List(ds.Countries[0], world.Windows, world.PageLoads, ds.Opts.DistMonth).TopN(100) {
		domains = append(domains, e.Domain)
	}
	months := make([]string, len(ds.Months))
	for i, m := range ds.Months {
		months[i] = m.String()
	}
	gen := fleet.NewGenerator(cfg.seed, ds.Countries, domains, months)
	next := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = gen.Next()
		}
		return out
	}
	ld := &load{warm: next(cfg.warmupRequests()), refs: map[string]reference{}}
	for r := 0; r < rounds; r++ {
		ld.latency = append(ld.latency, next(cfg.latencyRequests()))
		ld.throughput = append(ld.throughput, next(cfg.throughputRequests()))
	}
	h := newDatasetServer(ds, fleet.Assignment{}).Routes(fleet.MiddlewareConfig{})
	for _, seq := range append(append([][]string{ld.warm}, ld.latency...), ld.throughput...) {
		for _, p := range seq {
			if _, ok := ld.refs[p]; ok {
				continue
			}
			status, body := serveLocal(h, p)
			if !g.check(status == http.StatusOK, "reference %s: status %d", p, status) {
				continue
			}
			ld.refs[p] = reference{checksum: fleet.BodyChecksum(body), size: len(body)}
		}
	}
	return ld
}

// runServing serves ld from ds through one unsharded fleet.Server or,
// with fanout, through a fleet.Router to a 2×1 fleet, and returns the
// seconds its set-up took: booting the fleet and the warm-up block.
// Then rounds alternate one client, for latency, with nproc clients,
// for throughput, each over a fixed number of requests.
func runServing(cfg config, ds *chrome.Dataset, ld *load, fanout bool, tr *tracer, rep *report) (float64, error) {
	setupStart := time.Now()
	fl, err := bootFleet(ds, fanout, tr, cfg.wrap)
	if err != nil {
		return 0, err
	}
	defer fl.stop()
	ds = nil

	nproc := runtime.NumCPU()
	lc := newLoadClient(fl.url, nproc, tr, ld.refs, rep.gate)
	defer lc.hc.CloseIdleConnections()
	lc.run(ld.warm, nproc)
	setup := time.Since(setupStart).Seconds()

	rep.e2e["serve_heap_mib"] = liveHeapMiB()
	tr.reset()
	prom0, rt0 := promSnapshot(), readRT()

	// Each metric is the median over rounds, so a burst of load from
	// elsewhere on the host moves one round, not the result.
	var (
		p50s, p99s, rpss []float64
		spans            []span
		all              []sample
		cpuLatency       float64
		latencyN         int
	)
	for r := 0; r < rounds; r++ {
		runtime.GC()
		cpu0 := cpuSeconds()
		lat, _ := lc.run(ld.latency[r], 1)
		cpuLatency += cpuSeconds() - cpu0
		latencyN += len(lat)
		spans = append(spans, tr.snapshot()...)
		latMs := make([]float64, len(lat))
		for i, s := range lat {
			latMs[i] = s.ms
		}
		p99, ok := tailPercentile(latMs, 0.99)
		if !ok {
			return 0, fmt.Errorf("%d one-client samples cannot support a p99", len(latMs))
		}
		p50s, p99s = append(p50s, median(latMs)), append(p99s, p99)

		runtime.GC()
		thr, wall := lc.run(ld.throughput[r], nproc)
		tr.reset()
		rpss = append(rpss, float64(len(thr))/wall.Seconds())
		all = append(append(all, lat...), thr...)
	}
	prom1, rt1 := promSnapshot(), readRT()
	rep.e2e["serve_rps"] = median(rpss)
	rep.layer["serve_p50_ms"] = median(p50s)
	rep.layer["serve_p99_ms"] = median(p99s)

	n := float64(len(all))
	var bytes float64
	for _, s := range all {
		bytes += float64(s.bytes)
	}
	rep.layer["resp_kb_per_req"] = bytes / n / 1024
	rep.layer["cpu_us_per_req"] = cpuLatency / float64(latencyN) * 1e6
	rep.layer["alloc_kb_per_req"] = (rt1.allocBytes - rt0.allocBytes) / n / 1024
	if busy := rt1.busyCPU - rt0.busyCPU; busy > 0 {
		rep.layer["gc.cpu_fraction"] = (rt1.gcCPU - rt0.gcCPU) / busy
	}
	rep.layer["gc.cycles"] = rt1.gcCycles - rt0.gcCycles
	rep.layer["gc.pause_ms"] = (rt1.pauseNs - rt0.pauseNs) / 1e6
	routerCounters(prom0, prom1, n, rep)
	spanLayers(spans, rep)

	if cfg.trace {
		cruxExport(fl.ds, rep)
	}
	return setup, fl.stop()
}

// fleetUnderTest is the serving topology: one server, or two shard
// servers behind a router. url is where clients connect.
type fleetUnderTest struct {
	url     string
	ds      *chrome.Dataset // the dataset every server shares
	servers []*httpServer
	once    sync.Once
	err     error
}

func bootFleet(ds *chrome.Dataset, fanout bool, tr *tracer, wrap func(http.Handler) http.Handler) (*fleetUnderTest, error) {
	fl := &fleetUnderTest{ds: ds}
	entry := func(h http.Handler) (string, error) {
		if wrap != nil {
			h = wrap(h)
		}
		hs, err := startHTTP(h)
		if err != nil {
			return "", err
		}
		fl.servers = append(fl.servers, hs)
		return hs.url, nil
	}
	if !fanout {
		url, err := entry(tr.handlerSpans("shard", newDatasetServer(ds, fleet.Assignment{}).Routes(serverMiddleware)))
		fl.url = url
		return fl, err
	}
	var shards [][]string
	for i := 0; i < 2; i++ {
		a, err := fleet.ParseAssignment(strconv.Itoa(i) + "/2")
		if err != nil {
			return nil, err
		}
		hs, err := startHTTP(tr.handlerSpans("shard", newDatasetServer(ds, a).Routes(serverMiddleware)))
		if err != nil {
			fl.stop()
			return nil, err
		}
		fl.servers = append(fl.servers, hs)
		shards = append(shards, []string{hs.url})
	}
	// The router's CLI defaults: a 30s shard client over the chaos
	// transport at rate 0 (the plain default transport), 2s health
	// cooldown, one fan-out worker per CPU, a retry budget of 3 and
	// hedging clamped to 500ms.
	var transport http.RoundTripper = chaos.NewTransport(chaos.FlakyTransport(0, 0), nil)
	if tr.on {
		transport = spanTransport{t: tr, inner: transport}
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Shards:         shards,
		Client:         &http.Client{Timeout: 30 * time.Second, Transport: transport},
		HealthCooldown: 2 * time.Second,
		RetryBudget:    3,
		HedgeMax:       500 * time.Millisecond,
	})
	if err != nil {
		fl.stop()
		return nil, err
	}
	url, err := entry(tr.handlerSpans("router", rt.Routes(routerMiddleware)))
	fl.url = url
	if err != nil {
		fl.stop()
	}
	return fl, err
}

// stop shuts every server down once and waits for each.
func (fl *fleetUnderTest) stop() error {
	fl.once.Do(func() {
		for i := len(fl.servers) - 1; i >= 0; i-- {
			if err := fl.servers[i].stop(); err != nil && fl.err == nil {
				fl.err = err
			}
		}
	})
	return fl.err
}

// reference is the expected body of one path, by checksum and size.
type reference struct {
	checksum string
	size     int
}

// sample is one completed request.
type sample struct {
	ms    float64
	bytes int
}

// loadClient replays request sequences in a closed loop: each client
// sends its next request only after the previous reply is read.
type loadClient struct {
	hc   *http.Client
	base string
	tr   *tracer
	refs map[string]reference
	gate *gate
	reqs atomic.Int64
}

func newLoadClient(base string, conns int, tr *tracer, refs map[string]reference, g *gate) *loadClient {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost, t.MaxIdleConnsPerHost = conns, conns
	return &loadClient{hc: &http.Client{Timeout: time.Minute, Transport: t}, base: base, tr: tr, refs: refs, gate: g}
}

// run sends paths with the given number of clients and returns the
// per-request samples, in path order, and the wall time.
func (c *loadClient) run(paths []string, clients int) ([]sample, time.Duration) {
	out := make([]sample, len(paths))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(paths) {
					return
				}
				out[i] = c.do(paths[i])
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// do sends one request and checks its reply: a 200, a body that
// matches its X-Wwb-Checksum, and the reference bytes for the path.
func (c *loadClient) do(path string) sample {
	var hdr http.Header
	sp := c.tr.start("client", routeOf(path), 0, c.reqs.Add(1))
	if sp != nil {
		hdr = http.Header{
			parentHeader: {strconv.FormatInt(sp.ID(), 10)},
			reqHeader:    {strconv.FormatInt(sp.Req(), 10)},
		}
	}
	t0 := time.Now()
	resp, body, err := get(c.hc, c.base+path, hdr)
	elapsed := time.Since(t0)
	sp.End()
	if err == nil {
		err = okResponse(resp, body)
	}
	if err == nil {
		ref := c.refs[path]
		if sum := fleet.BodyChecksum(body); sum != ref.checksum || len(body) != ref.size {
			err = fmt.Errorf("body %s (%d bytes) differs from the reference %s (%d bytes)", sum, len(body), ref.checksum, ref.size)
		}
	}
	c.gate.errorf(err, "GET %s", path)
	return sample{ms: ms(elapsed), bytes: len(body)}
}

// routerCounters reads the router's fleet_* counters over the timed
// phases; on serve they stay 0.
func routerCounters(before, after map[string]float64, requests float64, rep *report) {
	delta := func(s string) float64 { return promDelta(before, after, s) }
	if c := delta("fleet_fanout_width_count"); c > 0 {
		rep.layer["router.fanout_width"] = delta("fleet_fanout_width_sum") / c
	}
	hedges := delta("fleet_hedges_total")
	rep.layer["router.hedges_per_kreq"] = hedges * 1000 / requests
	if hedges > 0 {
		rep.layer["router.hedge_win_ratio"] = delta("fleet_hedge_wins_total") / hedges
	}
	rep.layer["router.retries"] = delta("fleet_replica_retries_total")
	rep.layer["router.integrity_failures"] = delta("fleet_integrity_failures_total")
	rep.layer["router.epoch_skew_retries"] = delta("fleet_epoch_skew_retries_total")
	rep.layer["router.shed"] = delta("http_sheds_total")
}

// spanLayers derives the per-layer serving metrics from the one-client
// phase's spans: each client span, the server-side spans below it, and
// self times with overlapping children merged.
func spanLayers(spans []span, rep *report) {
	tree := newSpanTree(spans)
	perRoute := map[string][]float64{}
	shardSelf := map[string]float64{}
	var (
		total, loopback, unattributed []float64
		routerSelf, subreq            float64
		legs                          int
	)
	for _, c := range spans {
		if c.name != "client" {
			continue
		}
		r := c.detail
		d := float64(c.dur()) / 1e6
		perRoute[r] = append(perRoute[r], d)
		total = append(total, d)
		var direct, all []interval
		for _, k := range tree.children[c.id] {
			direct = append(direct, interval{k.start, k.end})
		}
		for _, s := range tree.descendants(c) {
			all = append(all, interval{s.start, s.end})
			switch s.name {
			case "shard":
				shardSelf[r] += float64(tree.selfTime(s)) / 1e6
			case "router":
				routerSelf += float64(tree.selfTime(s)) / 1e6
			case "subreq":
				subreq += float64(s.dur()) / 1e6
				legs++
			}
		}
		loopback = append(loopback, d-float64(covered(c.start, c.end, direct))/1e6)
		if c.dur() > 0 {
			unattributed = append(unattributed, 1-float64(covered(c.start, c.end, all))/float64(c.dur()))
		}
	}
	if len(total) == 0 {
		return
	}
	all := sum(total)
	for _, r := range routes {
		if xs := perRoute[r]; len(xs) > 0 {
			rep.layer["client."+r+".p50_ms"] = median(xs)
			rep.layer["client."+r+".time_share"] = sum(xs) / all
			rep.layer["shard."+r+".self_ms"] = shardSelf[r] / float64(len(xs))
		}
	}
	n := float64(len(total))
	rep.layer["http.loopback_ms"] = mean(loopback)
	rep.layer["unattributed"] = mean(unattributed)
	rep.layer["router.self_ms"] = routerSelf / n
	rep.layer["router.legs_per_req"] = float64(legs) / n
	if legs > 0 {
		rep.layer["router.subreq_ms"] = subreq / float64(legs)
	}
}

// cruxExport times direct crux.Export calls over the served dataset,
// the work behind the first /v1/crux of an epoch.
func cruxExport(ds *chrome.Dataset, rep *report) {
	var xs []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 := time.Now()
		crux.Export(ds, ds.Opts.DistMonth)
		xs = append(xs, ms(time.Since(t0)))
	}
	rep.layer["crux.export_ms"] = median(xs)
}
