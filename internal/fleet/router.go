package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wwb/internal/chaos"
	"wwb/internal/endemicity"
	"wwb/internal/metrics"
	"wwb/internal/parallel"
	"wwb/internal/world"
)

var (
	mShardReq = metrics.Default.HistogramVec(
		"fleet_shard_request_seconds",
		"Router-to-shard sub-request latency, by shard index.",
		metrics.DefBuckets,
		"shard")
	mFanoutWidth = metrics.Default.Histogram(
		"fleet_fanout_width",
		"Shards contacted per cross-shard fan-out.",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16})
	mReplicaRetries = metrics.Default.Counter(
		"fleet_replica_retries_total",
		"Sub-requests retried on another replica after a replica failure.")
	mEpochSkewRetries = metrics.Default.Counter(
		"fleet_epoch_skew_retries_total",
		"Fan-out sub-requests refetched because shards answered from different epochs.")
	mRouterEpoch = metrics.Default.Gauge(
		"fleet_router_epoch",
		"Fleet epoch last observed or installed by the router.")
	mBudgetExhausted = metrics.Default.Counter(
		"fleet_retry_budget_exhausted_total",
		"Requests whose cross-replica retry budget ran out before every candidate was tried.")
	mHedges = metrics.Default.Counter(
		"fleet_hedges_total",
		"Hedged second attempts launched after the p99-derived delay.")
	mHedgeWins = metrics.Default.Counter(
		"fleet_hedge_wins_total",
		"Hedged attempts that answered before the primary.")
	mHedgeLosses = metrics.Default.Counter(
		"fleet_hedge_losses_total",
		"Hedged attempts beaten by the primary (wasted work).")
	mIntegrityFailures = metrics.Default.Counter(
		"fleet_integrity_failures_total",
		"Sub-responses rejected because the body failed checksum verification.")
	mReplicaProbes = metrics.Default.Counter(
		"fleet_replica_probes_total",
		"Single-request recovery probes of replicas whose cooldown lapsed.")
	mShardDark = metrics.Default.Counter(
		"fleet_shard_dark_total",
		"Requests degraded because every replica of a shard failed at the transport level.")
)

// RouterConfig wires a Router to its shard fleet.
type RouterConfig struct {
	// Shards lists, per shard index, the base URLs of that shard's
	// replicas (e.g. "http://127.0.0.1:8081"). len(Shards) is the
	// shard count the partition function routes against — it must
	// match the -shard i/N the servers were started with.
	Shards [][]string
	// Client performs sub-requests; nil uses a 30s-timeout client.
	Client *http.Client
	// HealthCooldown is how long a replica stays routed-around after a
	// transport failure. 0 means the default (2s).
	HealthCooldown time.Duration
	// RetryBudget bounds, per client request, how many sub-request
	// retries (attempts beyond the first per shard leg) the router may
	// spend across all replicas. Fan-out routes scale it by the shard
	// count. 0 means the default (3); a sick fleet must not turn one
	// client request into an unbounded retry storm.
	RetryBudget int
	// HedgeMax caps the p99-derived hedge delay for fan-out
	// sub-requests (the floor is hedgeMin). 0 means the default
	// (500ms); HedgeMax < 0 disables hedging entirely.
	HedgeMax time.Duration
}

const (
	// epochRetries bounds refetches of stale shards during a fan-out
	// that straddles a swap.
	epochRetries = 5
	// hedgeMin floors the p99-derived hedge delay, so a fleet with a
	// near-zero p99 does not hedge every sub-request.
	hedgeMin = 2 * time.Millisecond
)

// replica is one shard backend with its health gate. A transport
// failure marks it down for a cooldown; requests route around a down
// replica. When the cooldown lapses, exactly one request wins the
// recovery probe (a CAS on downUntil re-arms the gate for everyone
// else), so the request stream never stampedes a just-recovered
// backend that may still be warming up.
type replica struct {
	base string

	// downUntil is the gate: 0 = healthy, otherwise the UnixNano
	// instant the cooldown lapses. All transitions are atomic so the
	// hot path never takes a lock.
	downUntil atomic.Int64
}

// available reports whether a request may try this replica now. For a
// replica whose cooldown has lapsed it returns true for exactly one
// caller — the probe — and re-arms the gate for the rest; the probe's
// outcome (markHealthy or markFailed) then settles the state.
func (r *replica) available(now time.Time, cooldown time.Duration) bool {
	dn := r.downUntil.Load()
	if dn == 0 {
		return true
	}
	if now.UnixNano() < dn {
		return false
	}
	// Cooldown lapsed: the CAS winner probes; losers see the re-armed
	// gate and keep routing around until the probe settles it.
	if r.downUntil.CompareAndSwap(dn, now.Add(cooldown).UnixNano()) {
		mReplicaProbes.Inc()
		return true
	}
	return false
}

func (r *replica) markFailed(now time.Time, cooldown time.Duration) {
	r.downUntil.Store(now.Add(cooldown).UnixNano())
}

func (r *replica) markHealthy() {
	r.downUntil.Store(0)
}

// shardGroup is one shard's replica set with a rotation cursor.
type shardGroup struct {
	replicas []*replica
	next     atomic.Uint64
}

// order returns the replicas to try, rotated for spread, healthy ones
// first. Down replicas stay in the list (last): when everything is
// down, probing a "down" replica beats failing without trying.
func (g *shardGroup) order(now time.Time, cooldown time.Duration) []*replica {
	start := int(g.next.Add(1)-1) % len(g.replicas)
	out := make([]*replica, 0, len(g.replicas))
	var down []*replica
	for i := 0; i < len(g.replicas); i++ {
		rep := g.replicas[(start+i)%len(g.replicas)]
		if !rep.available(now, cooldown) {
			down = append(down, rep)
			continue
		}
		out = append(out, rep)
	}
	return append(out, down...)
}

// retryBudget bounds the sub-request retries one client request may
// spend across all replicas of all shards. The initial attempt of
// each shard leg is free — the budget prices only the amplification.
type retryBudget struct {
	left atomic.Int64
}

func newRetryBudget(n int) *retryBudget {
	b := &retryBudget{}
	b.left.Store(int64(n))
	return b
}

// allow consumes one retry token; false means the budget is dry.
func (b *retryBudget) allow() bool {
	for {
		cur := b.left.Load()
		if cur <= 0 {
			return false
		}
		if b.left.CompareAndSwap(cur, cur-1) {
			return true
		}
	}
}

// ShardDarkError reports a shard whose every replica failed at the
// transport level — the fleet is partially dark and the client should
// back off and retry rather than treat the failure as permanent.
type ShardDarkError struct {
	Shard int
	Err   error
}

func (e *ShardDarkError) Error() string {
	return fmt.Sprintf("shard %d dark: %v", e.Shard, e.Err)
}

func (e *ShardDarkError) Unwrap() error { return e.Err }

// latRing tracks recent sub-request latencies so the hedge delay can
// follow the fleet's observed p99 instead of a static guess.
type latRing struct {
	mu  sync.Mutex
	buf [256]time.Duration
	n   int // total recorded (saturates the ring)
	idx int
}

func (l *latRing) record(d time.Duration) {
	l.mu.Lock()
	l.buf[l.idx] = d
	l.idx = (l.idx + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// p99 returns the nearest-rank p99 of the recorded window, or 0 until
// enough samples exist to make the estimate meaningful.
func (l *latRing) p99() time.Duration {
	l.mu.Lock()
	n := l.n
	samples := make([]time.Duration, n)
	copy(samples, l.buf[:n])
	l.mu.Unlock()
	if n < 16 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := (n*99 + 99) / 100 // ceil(0.99 n)
	if rank > n {
		rank = n
	}
	return samples[rank-1]
}

// fleetInfo is the decoded /shard/info payload the router caches: the
// serving epoch, analysis month, and canonical orderings.
type fleetInfo struct {
	Epoch     uint64   `json:"epoch"`
	Month     string   `json:"month"`
	Countries []string `json:"countries"`
	Months    []string `json:"months"`
}

// Router fronts a fleet of shard servers and re-exposes the /v1 API.
// Single-cell queries are proxied to the owning shard, shard-agnostic
// ones to any shard; /v1/site fans out and merges in canonical order,
// so every response is byte-identical to one unsharded server holding
// the whole dataset (DESIGN.md §9 states the merge ordering rule). The
// fan-out is epoch-checked: a merged response is never assembled from
// two dataset epochs, even mid-swap. The router holds no
// dataset-derived state but the fleet info.
type Router struct {
	client      *http.Client
	shards      []*shardGroup
	cooldown    time.Duration
	retryBudget int
	hedgeMax    time.Duration
	lat         latRing

	// infoMu guards the cached fleet info (epoch, analysis month,
	// country roster); invalidated on an observed epoch change.
	infoMu sync.Mutex
	info   *fleetInfo
}

// NewRouter builds a router over the configured shard fleet.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router needs at least one shard")
	}
	rt := &Router{
		client:      cfg.Client,
		cooldown:    cfg.HealthCooldown,
		retryBudget: cfg.RetryBudget,
		hedgeMax:    cfg.HedgeMax,
	}
	if rt.client == nil {
		rt.client = &http.Client{Timeout: 30 * time.Second}
	}
	if rt.cooldown <= 0 {
		rt.cooldown = 2 * time.Second
	}
	if rt.retryBudget <= 0 {
		rt.retryBudget = 3
	}
	if rt.hedgeMax == 0 {
		rt.hedgeMax = 500 * time.Millisecond
	}
	for i, reps := range cfg.Shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("shard %d has no replicas", i)
		}
		g := &shardGroup{}
		for _, base := range reps {
			g.replicas = append(g.replicas, &replica{base: strings.TrimRight(base, "/")})
		}
		rt.shards = append(rt.shards, g)
	}
	return rt, nil
}

// NumShards returns the shard count the router partitions against.
func (rt *Router) NumShards() int { return len(rt.shards) }

// Routes builds the router's route mux wrapped in the same hardening
// middleware stack as the shard servers.
func (rt *Router) Routes(mcfg MiddlewareConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /metrics", metrics.Handler(metrics.Default))
	mux.HandleFunc("GET /v1/countries", rt.handleCountries)
	mux.HandleFunc("GET /v1/list", rt.handleList)
	mux.HandleFunc("GET /v1/dist", rt.handleProxyAny)
	mux.HandleFunc("GET /v1/site", rt.handleSite)
	mux.HandleFunc("GET /v1/crux", rt.handleCrux)
	mux.HandleFunc("GET /v1/experiments", rt.handleExperiments)
	mux.HandleFunc("GET /v1/experiment/{id}", rt.handleProxyAny)
	mux.HandleFunc("GET /shard/info", rt.handleInfo)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		HTTPError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	})
	return WithMiddleware(mux, mcfg)
}

// shardResp is one shard sub-response, body fully read so it can be
// inspected, merged, or replayed verbatim.
type shardResp struct {
	status  int
	header  http.Header
	body    []byte
	epoch   uint64
	replica string
}

// doReplica performs one sub-request against one replica, reading and
// integrity-checking the body: a checksum mismatch (a body corrupted
// in flight) is a transport failure, never a response.
func (rt *Router) doReplica(ctx context.Context, rep *replica, method, uri string) (*shardResp, error) {
	req, err := http.NewRequestWithContext(ctx, method, rep.base+uri, nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if err := VerifyBody(resp.Header, body); err != nil {
		mIntegrityFailures.Inc()
		return nil, err
	}
	epoch, _ := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
	return &shardResp{
		status:  resp.StatusCode,
		header:  resp.Header,
		body:    body,
		epoch:   epoch,
		replica: rep.base,
	}, nil
}

// maxPresized caps the body buffer doReplica sizes from a declared
// Content-Length; a larger declared body is read into a growing buffer
// instead, so a bogus header cannot make one sub-request allocate it.
const maxPresized = 32 << 20

// readBody reads a sub-response body into one buffer of its declared
// length. A body cut short fails with the reader's own error (an
// unexpected EOF), never as a silently short success.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxPresized {
		return io.ReadAll(resp.Body)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		return nil, err
	}
	return body, nil
}

// retriable reports whether a sub-response warrants trying another
// replica: gateway-style failures, plus 503 because a shed replica's
// sibling may have capacity.
func retriable(status int) bool {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// gatewayish reports a status the shard servers themselves never
// produce — it can only mean infrastructure between router and shard
// misbehaved, so the router degrades it to an attributed shed instead
// of forwarding upstream garbage.
func gatewayish(status int) bool {
	return status == http.StatusBadGateway || status == http.StatusGatewayTimeout
}

// do performs a sub-request against shard, walking its replicas until
// one answers. A transport failure gates the replica out of rotation
// for the cooldown; a retriable status tries the next replica without
// gating (a shed 503 is a healthy replica at capacity, not a dead
// one). Every attempt beyond the first consumes one token from the
// request's retry budget — a sick fleet must not amplify one client
// request into an unbounded retry storm. When every replica fails at
// the transport level the error is a ShardDarkError carrying the
// shard index, so degradation responses can attribute the outage.
func (rt *Router) do(ctx context.Context, shard int, method, uri string, b *retryBudget) (*shardResp, error) {
	g := rt.shards[shard]
	label := strconv.Itoa(shard)
	var lastResp *shardResp
	var lastErr error
	for i, rep := range g.order(time.Now(), rt.cooldown) {
		if i > 0 {
			if !b.allow() {
				mBudgetExhausted.Inc()
				break
			}
			mReplicaRetries.Inc()
		}
		start := time.Now()
		resp, err := rt.doReplica(ctx, rep, method, uri)
		elapsed := time.Since(start)
		mShardReq.With(label).Observe(elapsed.Seconds())
		if err != nil {
			rep.markFailed(time.Now(), rt.cooldown)
			lastErr = fmt.Errorf("%s: %w", rep.base, err)
			if ctx.Err() != nil {
				break
			}
			continue
		}
		rt.lat.record(elapsed)
		rep.markHealthy()
		if retriable(resp.status) {
			lastResp, lastErr = resp, nil
			continue
		}
		return resp, nil
	}
	if lastResp != nil {
		return lastResp, nil
	}
	if lastErr != nil {
		// No replica produced any HTTP response at all.
		mShardDark.Inc()
		return nil, &ShardDarkError{Shard: shard, Err: lastErr}
	}
	return nil, fmt.Errorf("shard %d: no replica attempted", shard)
}

// budgetFor allocates the retry budget for one client request. Fan-out
// routes touch every shard, so their budget scales with the shard
// count; the bound is still global across the whole request, not per
// replica.
func (rt *Router) budgetFor(fanout bool) *retryBudget {
	n := rt.retryBudget
	if fanout {
		n *= len(rt.shards)
	}
	return newRetryBudget(n)
}

// hedgeDelay derives the hedged-read trigger from the observed shard
// sub-request p99, clamped to [hedgeMin, hedgeMax]; before enough
// samples exist the delay sits at the conservative maximum.
func (rt *Router) hedgeDelay() time.Duration {
	d := rt.lat.p99()
	if d == 0 {
		return rt.hedgeMax
	}
	if d < hedgeMin {
		d = hedgeMin
	}
	if d > rt.hedgeMax {
		d = rt.hedgeMax
	}
	return d
}

// Attempt numbers of one shard leg, as stamped for the fault transport
// (chaos.WithAttempt): the primary is attempt 1, its hedge
// hedgeAttempt, and epoch-skew refetch k is hedgeAttempt+k. Resending
// a leg thus draws a fresh fault, while a leg's faults never depend
// on how often its URI was requested before.
const hedgeAttempt = 2

// doHedged is the tail-latency variant of do for fan-out legs: if the
// primary attempt has not answered within the p99-derived delay, a
// second attempt launches against the shard (budget permitting) and
// the first good answer wins; the loser is cancelled. One slow or
// half-dead replica then costs one extra sub-request, not a fan-out
// stall — the classic hedged-request move.
func (rt *Router) doHedged(ctx context.Context, shard int, uri string, b *retryBudget) (*shardResp, error) {
	if rt.hedgeMax < 0 { // hedging disabled
		return rt.do(ctx, shard, http.MethodGet, uri, b)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		resp   *shardResp
		err    error
		hedged bool
	}
	ch := make(chan result, 2)
	launch := func(hedged bool) {
		lctx := hctx
		if hedged {
			lctx = chaos.WithAttempt(hctx, hedgeAttempt)
		}
		go func() {
			resp, err := rt.do(lctx, shard, http.MethodGet, uri, b)
			ch <- result{resp: resp, err: err, hedged: hedged}
		}()
	}
	launch(false)
	timer := time.NewTimer(rt.hedgeDelay())
	defer timer.Stop()
	launched := 1
	var last result
	for received := 0; received < launched; {
		select {
		case r := <-ch:
			received++
			good := r.err == nil && !retriable(r.resp.status)
			if good {
				if launched == 2 {
					if r.hedged {
						mHedgeWins.Inc()
					} else {
						mHedgeLosses.Inc()
					}
				}
				return r.resp, nil
			}
			last = r
		case <-timer.C:
			if launched == 1 && b.allow() {
				mHedges.Inc()
				launched++
				launch(true)
			}
		}
	}
	return last.resp, last.err
}

// forward replays a sub-response to the client verbatim. A body that
// arrived with a checksum was verified against it in doReplica, so
// both go to the checksum middleware as they are, like a stored body.
func forward(w http.ResponseWriter, resp *shardResp) {
	if ct := resp.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if resp.epoch != 0 {
		w.Header().Set(EpochHeader, strconv.FormatUint(resp.epoch, 10))
	}
	if sum := resp.header.Get(ChecksumHeader); sum != "" {
		writeSummed(w, resp.status, &rendered{body: resp.body, sum: sum})
		return
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// fanout performs the same sub-request against every shard and returns
// one response per shard, all from the same dataset epoch. Each leg is
// a hedged read sharing one retry budget across the whole fan-out.
// When a swap lands mid-fan-out, shards still answering the old epoch
// are refetched (bounded) until the set agrees; persistent skew is an
// error the caller turns into a shed.
func (rt *Router) fanout(ctx context.Context, uri string, b *retryBudget) ([]*shardResp, error) {
	mFanoutWidth.Observe(float64(len(rt.shards)))
	resps, err := parallel.MapCtx(ctx, len(rt.shards),
		func(ctx context.Context, i int) (*shardResp, error) {
			resp, err := rt.doHedged(ctx, i, uri, b)
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			return resp, nil
		})
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		var target uint64
		for _, r := range resps {
			if r.epoch > target {
				target = r.epoch
			}
		}
		stale := make([]int, 0, len(resps))
		for i, r := range resps {
			if r.epoch != target {
				stale = append(stale, i)
			}
		}
		if len(stale) == 0 {
			mRouterEpoch.Set(int64(target))
			return resps, nil
		}
		if attempt >= epochRetries {
			return nil, fmt.Errorf("epoch skew persisted across %d retries (want epoch %d)", attempt, target)
		}
		// A stale shard has not installed the new epoch yet; give the
		// swap a beat to propagate, then refetch just the stragglers.
		time.Sleep(10 * time.Millisecond)
		refetch := hedgeAttempt + attempt + 1
		_, err := parallel.MapCtx(ctx, len(stale),
			func(ctx context.Context, j int) (struct{}, error) {
				i := stale[j]
				mEpochSkewRetries.Inc()
				resp, err := rt.do(chaos.WithAttempt(ctx, refetch), i, http.MethodGet, uri, b)
				if err != nil {
					return struct{}{}, fmt.Errorf("shard %d: %w", i, err)
				}
				resps[i] = resp
				return struct{}{}, nil
			})
		if err != nil {
			return nil, err
		}
	}
}

// degrade answers a sub-request failure with an explicit
// partial-degradation 503: Retry-After set, and when the failure is a
// dark shard, the shard index in the envelope so the outage is
// attributed instead of reported as anonymous gateway noise. The
// router never converts a shard failure into a silently wrong merge —
// it either answers whole or degrades loudly.
func degrade(w http.ResponseWriter, err error, what string) {
	var dark *ShardDarkError
	if errors.As(err, &dark) {
		shed(w, "%s: shard %d has no reachable replica: %v", what, dark.Shard, dark.Err)
		return
	}
	shed(w, "%s: %v", what, err)
}

// getInfo returns the cached fleet info, fetching it from a shard on
// the first call or after invalidation.
func (rt *Router) getInfo(ctx context.Context) (*fleetInfo, error) {
	rt.infoMu.Lock()
	if rt.info != nil {
		info := rt.info
		rt.infoMu.Unlock()
		return info, nil
	}
	rt.infoMu.Unlock()
	resp, err := rt.do(ctx, 0, http.MethodGet, "/shard/info", rt.budgetFor(false))
	if err != nil {
		return nil, err
	}
	if resp.status != http.StatusOK {
		return nil, fmt.Errorf("shard info: status %d", resp.status)
	}
	var info fleetInfo
	if err := json.Unmarshal(resp.body, &info); err != nil {
		return nil, fmt.Errorf("decoding shard info: %w", err)
	}
	rt.infoMu.Lock()
	rt.info = &info
	rt.infoMu.Unlock()
	mRouterEpoch.Set(int64(info.Epoch))
	return &info, nil
}

// invalidate drops the cached fleet info (and with it the default
// month) so the next request refetches; called when a response's epoch
// disagrees with the cache.
func (rt *Router) invalidate() {
	rt.infoMu.Lock()
	rt.info = nil
	rt.infoMu.Unlock()
}

// analysisMonth resolves the fleet's default ?month=.
func (rt *Router) analysisMonth(ctx context.Context) (world.Month, uint64, error) {
	info, err := rt.getInfo(ctx)
	if err != nil {
		return 0, 0, err
	}
	m, ok := MonthByName(info.Month)
	if !ok {
		return 0, 0, fmt.Errorf("shard reported unknown month %q", info.Month)
	}
	return m, info.Epoch, nil
}

// handleCountries serves the country roster locally — it is the world
// model, not dataset state, so no shard round-trip is needed and the
// bytes match the single-server handler by construction.
func (rt *Router) handleCountries(w http.ResponseWriter, _ *http.Request) {
	writeRendered(w, countriesBody())
}

// handleExperiments serves the static experiment catalogue locally.
func (rt *Router) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	writeRendered(w, experimentsBody())
}

// handleProxyAny proxies a query every shard answers identically
// (/v1/dist global curves, the global /v1/crux scope, /v1/experiment)
// to one shard, chosen by URI hash so identical requests reuse the
// same shard's caches.
func (rt *Router) handleProxyAny(w http.ResponseWriter, r *http.Request) {
	shard := 0
	if n := len(rt.shards); n > 1 {
		shard = int(fnvString(r.URL.RequestURI()) % uint32(n))
	}
	resp, err := rt.do(r.Context(), shard, http.MethodGet, r.URL.RequestURI(), rt.budgetFor(false))
	if err != nil {
		degrade(w, err, "proxy failed")
		return
	}
	if gatewayish(resp.status) {
		shed(w, "shard %d answered gateway status %d", shard, resp.status)
		return
	}
	rt.noteEpoch(resp.epoch)
	forward(w, resp)
}

// noteEpoch invalidates the info cache when a sub-response reveals the
// fleet has moved past the cached epoch.
func (rt *Router) noteEpoch(epoch uint64) {
	if epoch == 0 {
		return
	}
	rt.infoMu.Lock()
	if rt.info != nil && rt.info.Epoch != epoch {
		rt.info = nil
	}
	rt.infoMu.Unlock()
	mRouterEpoch.Set(int64(epoch))
}

// handleList proxies the list query to the shard owning its
// (country, month) cell. Validation runs here first with the same
// helpers as the shard, so error envelopes are byte-identical too.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	country := strings.ToUpper(q.Get("country"))
	if _, ok := world.CountryByCode(country); !ok {
		HTTPError(w, http.StatusBadRequest, "unknown country %q", country)
		return
	}
	if _, err := ParsePlatform(q.Get("platform")); err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := ParseMetric(q.Get("metric")); err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rt.proxyOwner(w, r, country, q.Get("month"), "list proxy failed")
}

// proxyOwner proxies r to the shard owning the (country, month) cell,
// month being the raw ?month= value or, when empty, the fleet's
// analysis month. Two passes at most: if the proxied response reveals
// a new epoch (the analysis month, and with it the owner, may have
// changed with the dataset), it refreshes the info cache and re-routes
// once. One budget covers both passes.
func (rt *Router) proxyOwner(w http.ResponseWriter, r *http.Request, country, rawMonth, what string) {
	b := rt.budgetFor(false)
	for attempt := 0; ; attempt++ {
		def, epoch, err := rt.analysisMonth(r.Context())
		if err != nil {
			degrade(w, err, "fleet info unavailable")
			return
		}
		month, err := ParseMonth(rawMonth, def)
		if err != nil {
			HTTPError(w, http.StatusBadRequest, "%v", err)
			return
		}
		shard := ShardOf(country, month, len(rt.shards))
		resp, err := rt.do(chaos.WithAttempt(r.Context(), attempt+1), shard, http.MethodGet, r.URL.RequestURI(), b)
		if err != nil {
			degrade(w, err, what)
			return
		}
		if gatewayish(resp.status) {
			shed(w, "shard %d answered gateway status %d", shard, resp.status)
			return
		}
		if resp.epoch != 0 && resp.epoch != epoch && attempt == 0 {
			rt.invalidate()
			continue
		}
		rt.noteEpoch(resp.epoch)
		forward(w, resp)
		return
	}
}

// siteProfile is the decoded /v1/site payload.
type siteProfile struct {
	Domain   string         `json:"domain"`
	Key      string         `json:"key"`
	Platform string         `json:"platform"`
	Metric   string         `json:"metric"`
	Month    string         `json:"month"`
	Category string         `json:"category"`
	Ranks    map[string]int `json:"ranks"`
}

// handleSite fans the profile query out to every shard and merges the
// per-country ranks. Each (country, month) cell lives on exactly one
// shard, so the rank maps are disjoint and their union equals the
// single-server map; the endemicity curve is recomputed here over the
// canonical roster, which reproduces the single-server floats exactly
// because the inputs are identical.
func (rt *Router) handleSite(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("domain") == "" {
		HTTPError(w, http.StatusBadRequest, "missing domain parameter")
		return
	}
	if _, err := ParsePlatform(q.Get("platform")); err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := ParseMetric(q.Get("metric")); err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := ParseMonth(q.Get("month"), 0); err != nil && q.Get("month") != "" {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resps, err := rt.fanout(r.Context(), r.URL.RequestURI(), rt.budgetFor(true))
	if err != nil {
		degrade(w, err, "site fan-out failed")
		return
	}
	for i, resp := range resps {
		if gatewayish(resp.status) {
			shed(w, "shard %d answered gateway status %d", i, resp.status)
			return
		}
		if resp.status != http.StatusOK {
			forward(w, resp)
			return
		}
	}
	var merged siteProfile
	ranks := map[string]int{}
	for i, resp := range resps {
		var p siteProfile
		if err := json.Unmarshal(resp.body, &p); err != nil {
			HTTPError(w, http.StatusBadGateway, "shard %d: bad site payload: %v", i, err)
			return
		}
		if i == 0 {
			merged = p
		}
		for c, rank := range p.Ranks {
			ranks[c] = rank
		}
	}
	info, err := rt.getInfo(r.Context())
	if err != nil {
		degrade(w, err, "fleet info unavailable")
		return
	}
	curve := endemicity.BuildCurve(merged.Key, ranks, info.Countries)
	w.Header().Set(EpochHeader, strconv.FormatUint(resps[0].epoch, 10))
	rt.noteEpoch(resps[0].epoch)
	WriteJSON(w, http.StatusOK, map[string]any{
		"domain":     merged.Domain,
		"key":        merged.Key,
		"platform":   merged.Platform,
		"metric":     merged.Metric,
		"month":      merged.Month,
		"category":   merged.Category,
		"countries":  len(ranks),
		"ranks":      ranks,
		"endemicity": curve.Score(),
		"shape":      endemicity.ClassifyShape(curve).String(),
		"bestRank":   curve.BestRank(),
	})
}

// shed answers 503 with the same Retry-After convention as the
// in-flight limiter: epoch skew and fan-out failures are transient by
// construction, so clients should back off and retry.
func shed(w http.ResponseWriter, format string, args ...any) {
	mHTTPSheds.Inc()
	w.Header().Set("Retry-After", "1")
	HTTPError(w, http.StatusServiceUnavailable, format, args...)
}

// handleCrux routes the public bucket export. Every shard renders its
// scopes from the whole dataset when it builds an epoch: the global
// scope, which any shard serves, and the countries it owns at the
// analysis month. So the global scope is proxied like any other
// shard-agnostic query, and a country scope goes to its owner.
func (rt *Router) handleCrux(w http.ResponseWriter, r *http.Request) {
	country := strings.ToUpper(r.URL.Query().Get("country"))
	if country == "" {
		rt.handleProxyAny(w, r)
		return
	}
	if _, ok := world.CountryByCode(country); !ok {
		HTTPError(w, http.StatusBadRequest, "unknown country %q", country)
		return
	}
	rt.proxyOwner(w, r, country, "", "crux proxy failed")
}

// handleInfo reports the router's view of the fleet.
func (rt *Router) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := rt.getInfo(r.Context())
	if err != nil {
		HTTPError(w, http.StatusBadGateway, "fleet info unavailable: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"role":      "router",
		"shards":    len(rt.shards),
		"epoch":     info.Epoch,
		"month":     info.Month,
		"countries": info.Countries,
		"months":    info.Months,
	})
}

// fnvString is FNV-1a over a string, for stable shard spreading.
func fnvString(s string) uint32 {
	const offset, prime = 2166136261, 16777619
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}
