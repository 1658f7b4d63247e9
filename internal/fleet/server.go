package fleet

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wwb/internal/chrome"
	"wwb/internal/crux"
	"wwb/internal/endemicity"
	"wwb/internal/metrics"
	"wwb/internal/psl"
	"wwb/internal/world"
)

var (
	mServeEpoch = metrics.Default.Gauge(
		"wwb_serve_epoch",
		"Dataset epoch currently served (bumped by POST /admin/swap).")
	mServeSwaps = metrics.Default.Counter(
		"wwb_swaps_total",
		"Completed dataset epoch swaps.")
)

// ServerConfig wires a Server to its host process.
type ServerConfig struct {
	// Shard restricts serving to this slice of the dataset's
	// (country, month) cells. The zero value serves everything.
	Shard Assignment
	// Month is the analysis month: the default for ?month= params and
	// the month /v1/crux exports. Callers pass the study's analysis
	// month or the dataset's DistMonth.
	Month world.Month
	// Categorize labels a domain (study mode); nil serves empty
	// categories (dataset-only mode).
	Categorize func(domain string) string
	// Experiment renders an experiment by ID (study mode); nil answers
	// 501 — experiments need the full study workflow.
	Experiment func(id string) (string, error)
	// LoadSnapshot loads a dataset artifact by path for POST
	// /admin/swap; nil disables swapping (501). The loaded dataset is
	// re-sliced with Shard before it goes live.
	LoadSnapshot func(path string) (*chrome.Dataset, error)
}

// epochState is one immutable serving generation: a dataset plus the
// finished bytes of its small-keyspace responses. Handlers capture the
// pointer once at entry, so a concurrent swap can never tear a response
// across two datasets, and no rendered body can outlive or straddle its
// epoch; the old epoch drains naturally as its in-flight requests
// finish and is then garbage-collected with everything it rendered.
type epochState struct {
	ds    *chrome.Dataset
	epoch uint64
	path  string // artifact the epoch was loaded from ("" for the boot dataset)
	month world.Month

	// dist holds the /v1/dist bodies at the default n, by distKey;
	// rendered when the epoch is built.
	dist map[distKey]*rendered

	// crux holds the /v1/crux bodies. A sliced server renders them
	// when it builds the epoch (see Server.newEpoch). A whole server
	// renders every scope on first use, under cruxMu, which guards the
	// field and single-flights the export. A failed export is NOT kept
	// — the next request retries — so a one-off panic (e.g. under
	// chaos) cannot poison the endpoint for the life of the epoch.
	cruxMu sync.Mutex
	crux   *cruxBodies
}

// distKey keys an epoch's rendered /v1/dist bodies.
type distKey struct {
	p world.Platform
	m world.Metric
}

// defaultDistN is the /v1/dist depth when ?n= is absent.
const defaultDistN = 1000

// Server serves a dataset (or a shard slice of one) over the /v1 HTTP
// API, with an atomically swappable dataset epoch. It is the serving
// core of wwbserve and of every fleet shard.
type Server struct {
	cfg ServerConfig
	cur atomic.Pointer[epochState]

	// swapMu serialises swaps; reads never take it.
	swapMu sync.Mutex

	// exportCrux computes the public records (a hook so tests can
	// inject a failing first attempt or count exports).
	exportCrux func(*chrome.Dataset, world.Month) []crux.Record
}

// NewServer builds a server over ds at epoch 1, sliced per cfg.Shard.
func NewServer(ds *chrome.Dataset, cfg ServerConfig) *Server {
	s := &Server{cfg: cfg, exportCrux: crux.Export}
	s.install(s.newEpoch(ds, 1, "", cfg.Month))
	return s
}

// SetCruxExport replaces the /v1/crux export function. Test hook;
// call before serving.
func (s *Server) SetCruxExport(fn func(*chrome.Dataset, world.Month) []crux.Record) {
	s.exportCrux = fn
}

// newEpoch builds an epoch over a freshly loaded, whole dataset: it
// slices the dataset per the shard assignment and renders the
// default-n /v1/dist bodies. A sliced server also renders its /v1/crux
// bodies here, while the whole dataset is still in hand: the global
// scope and the countries it owns at the analysis month. A crux scope
// is an export over every country, so no slice can compute it later.
func (s *Server) newEpoch(ds *chrome.Dataset, epoch uint64, path string, month world.Month) *epochState {
	st := &epochState{ds: ds, epoch: epoch, path: path, month: month, dist: map[distKey]*rendered{}}
	if !s.cfg.Shard.Whole() {
		st.ds = ds.ShardView(s.cfg.Shard.Owns)
		st.crux = renderCrux(s.exportCrux(ds, month), func(scope string) bool {
			return scope == "" || s.cfg.Shard.Owns(scope, month)
		})
	}
	for _, p := range world.Platforms {
		for _, m := range world.Metrics {
			if curve := ds.Dist(p, m); curve != nil {
				st.dist[distKey{p, m}] = render(distResponse(curve, min(defaultDistN, curve.Len())))
			}
		}
	}
	return st
}

func (s *Server) install(st *epochState) {
	s.cur.Store(st)
	mServeEpoch.Set(int64(st.epoch))
}

// state returns the current epoch; callers use one state for the whole
// request.
func (s *Server) state() *epochState { return s.cur.Load() }

// Epoch returns the currently served dataset epoch.
func (s *Server) Epoch() uint64 { return s.state().epoch }

// Dataset returns the currently served (possibly sliced) dataset.
func (s *Server) Dataset() *chrome.Dataset { return s.state().ds }

// begin captures the serving epoch for one request and stamps it on
// the response, so fan-out callers can verify a merged answer came
// wholly from one epoch.
func (s *Server) begin(w http.ResponseWriter) *epochState {
	st := s.state()
	w.Header().Set(EpochHeader, strconv.FormatUint(st.epoch, 10))
	return st
}

// SwapTo loads, slices, and atomically installs a new dataset epoch.
// In-flight requests keep serving the old epoch until they finish;
// new requests see the new pointer immediately — the drain needs no
// locks and loses no requests. epoch 0 means "current + 1".
func (s *Server) SwapTo(path string, epoch uint64) (*epochState, error) {
	if s.cfg.LoadSnapshot == nil {
		return nil, fmt.Errorf("swap unavailable: no snapshot loader configured")
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.state()
	if epoch == 0 {
		epoch = cur.epoch + 1
	}
	if epoch == cur.epoch && path == cur.path {
		return cur, nil // idempotent retry of a completed swap
	}
	if epoch <= cur.epoch {
		return nil, fmt.Errorf("stale epoch %d (serving %d)", epoch, cur.epoch)
	}
	ds, err := s.cfg.LoadSnapshot(path)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	st := s.newEpoch(ds, epoch, path, ds.Opts.DistMonth)
	s.install(st)
	mServeSwaps.Inc()
	return st, nil
}

// Routes builds the route mux wrapped in the hardening middleware
// stack (request IDs, logging, panic recovery, load shedding,
// per-request timeout — see middleware.go).
func (s *Server) Routes(mcfg MiddlewareConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", metrics.Handler(metrics.Default))
	if mcfg.Pprof {
		// Opt-in profiling endpoints; opsExempt keeps them outside the
		// limiter and the per-request timeout so a 30s CPU profile of a
		// saturated server actually completes.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /v1/countries", s.handleCountries)
	mux.HandleFunc("GET /v1/list", s.handleList)
	mux.HandleFunc("GET /v1/dist", s.handleDist)
	mux.HandleFunc("GET /v1/site", s.handleSite)
	mux.HandleFunc("GET /v1/crux", s.handleCrux)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/experiment/{id}", s.handleExperiment)
	mux.HandleFunc("POST /admin/swap", s.handleSwap)
	mux.HandleFunc("GET /shard/info", s.handleShardInfo)
	// Catch-all: unknown paths get the same JSON error envelope as
	// every other failure, not net/http's plain-text 404 page.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		HTTPError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	})
	return WithMiddleware(mux, mcfg)
}

// categorize labels a domain when a study is available.
func (s *Server) categorize(domain string) string {
	if s.cfg.Categorize == nil {
		return ""
	}
	return s.cfg.Categorize(domain)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleCountries(w http.ResponseWriter, _ *http.Request) {
	s.begin(w)
	writeRendered(w, countriesBody())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	st := s.begin(w)
	q := r.URL.Query()
	country := strings.ToUpper(q.Get("country"))
	if _, ok := world.CountryByCode(country); !ok {
		HTTPError(w, http.StatusBadRequest, "unknown country %q", country)
		return
	}
	p, err := ParsePlatform(q.Get("platform"))
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m, err := ParseMetric(q.Get("metric"))
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	month, err := ParseMonth(q.Get("month"), st.month)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	n := 100
	if raw := q.Get("n"); raw != "" {
		n, err = strconv.Atoi(raw)
		if err != nil || n < 1 {
			HTTPError(w, http.StatusBadRequest, "invalid n %q", raw)
			return
		}
	}
	if n > MaxListN {
		n = MaxListN
	}
	list := st.ds.List(country, p, m, month)
	if list == nil {
		HTTPError(w, http.StatusNotFound, "no list for %s/%s/%s/%s", country, p, m, month)
		return
	}
	// Clamp before allocating: n comes straight from the query, and a
	// ?n=1000000000 request must not size a multi-GB slice.
	if n > len(list) {
		n = len(list)
	}
	type entry struct {
		Rank     int     `json:"rank"`
		Domain   string  `json:"domain"`
		Value    float64 `json:"value"`
		Category string  `json:"category"`
	}
	out := make([]entry, 0, n)
	for i, e := range list.TopN(n) {
		out = append(out, entry{
			Rank:     i + 1,
			Domain:   e.Domain,
			Value:    e.Value,
			Category: s.categorize(e.Domain),
		})
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleDist(w http.ResponseWriter, r *http.Request) {
	st := s.begin(w)
	q := r.URL.Query()
	p, err := ParsePlatform(q.Get("platform"))
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m, err := ParseMetric(q.Get("metric"))
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	curve := st.ds.Dist(p, m)
	if curve == nil {
		HTTPError(w, http.StatusNotFound, "no distribution for %s/%s", p, m)
		return
	}
	n := defaultDistN
	if raw := q.Get("n"); raw != "" {
		n, err = strconv.Atoi(raw)
		if err != nil || n < 1 {
			HTTPError(w, http.StatusBadRequest, "invalid n %q", raw)
			return
		}
	}
	n = min(n, curve.Len())
	// Every n that clamps to the default depth has the default body;
	// any other n is encoded per request, so hostile n values cannot
	// grow what the epoch stores.
	if n == min(defaultDistN, curve.Len()) {
		writeRendered(w, st.dist[distKey{p, m}])
		return
	}
	WriteJSON(w, http.StatusOK, distResponse(curve, n))
}

// distResponse is the /v1/dist body for a curve's top n shares.
func distResponse(curve *chrome.DistCurve, n int) map[string]any {
	return map[string]any{
		"sites":  curve.Len(),
		"shares": curve.Shares[:n],
		"cum10":  curve.CumShare(10),
		"cum100": curve.CumShare(100),
		"cum10k": curve.CumShare(10000),
		"for25":  curve.SitesForShare(0.25),
		"for50":  curve.SitesForShare(0.50),
	}
}

// handleSite serves a per-site popularity profile. Besides the
// required ?domain, it honours the same optional query params as the
// other endpoints: ?platform= (windows|android), ?metric=
// (loads|time), and ?month= (2021-09 … 2022-08, defaulting to the
// analysis month). On a shard slice the ranks cover only the owned
// (country, month) cells — the router merges slices from every shard
// and recomputes the curve over the full roster.
func (s *Server) handleSite(w http.ResponseWriter, r *http.Request) {
	st := s.begin(w)
	q := r.URL.Query()
	domain := q.Get("domain")
	if domain == "" {
		HTTPError(w, http.StatusBadRequest, "missing domain parameter")
		return
	}
	p, err := ParsePlatform(q.Get("platform"))
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m, err := ParseMetric(q.Get("metric"))
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	month, err := ParseMonth(q.Get("month"), st.month)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := psl.Default.SiteKey(domain)
	ranks := map[string]int{}
	codes := st.ds.Countries
	ix := st.ds.Index()
	if id, ok := ix.ID(key); ok {
		for _, c := range codes {
			if rank := ix.Rank(c, p, m, month, id); rank > 0 {
				ranks[c] = rank
			}
		}
	}
	curve := endemicity.BuildCurve(key, ranks, codes)
	WriteJSON(w, http.StatusOK, map[string]any{
		"domain":     domain,
		"key":        key,
		"platform":   PlatformParam(p),
		"metric":     MetricParam(m),
		"month":      month.String(),
		"category":   s.categorize(domain),
		"countries":  len(ranks),
		"ranks":      ranks,
		"endemicity": curve.Score(),
		"shape":      endemicity.ClassifyShape(curve).String(),
		"bestRank":   curve.BestRank(),
	})
}

func (s *Server) handleCrux(w http.ResponseWriter, r *http.Request) {
	st := s.begin(w)
	country := strings.ToUpper(r.URL.Query().Get("country"))
	if country != "" {
		if _, ok := world.CountryByCode(country); !ok {
			HTTPError(w, http.StatusBadRequest, "unknown country %q", country)
			return
		}
		if !s.cfg.Shard.Owns(country, st.month) {
			HTTPError(w, http.StatusNotFound, "no crux scope %s on shard %s", country, s.cfg.Shard)
			return
		}
	}
	bodies, err := s.renderedCrux(st)
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, "crux export failed: %v", err)
		return
	}
	writeRendered(w, bodies.scope(country))
}

// renderedCrux returns the epoch's rendered crux bodies. On a whole
// server it exports and renders them once, under single-flight, and
// keeps only a successful result; a failure is reported and the next
// request retries. A sliced server's epoch was built holding them.
func (s *Server) renderedCrux(st *epochState) (bodies *cruxBodies, err error) {
	st.cruxMu.Lock()
	defer st.cruxMu.Unlock()
	if st.crux != nil {
		return st.crux, nil
	}
	defer func() {
		if v := recover(); v != nil {
			bodies, err = nil, fmt.Errorf("%v", v)
		}
	}()
	st.crux = renderCrux(s.exportCrux(st.ds, st.month), nil)
	return st.crux, nil
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	s.begin(w)
	writeRendered(w, experimentsBody())
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	s.begin(w)
	if s.cfg.Experiment == nil {
		HTTPError(w, http.StatusNotImplemented, "experiments need a full study; restart without -data")
		return
	}
	id := r.PathValue("id")
	out, err := s.cfg.Experiment(id)
	if err != nil {
		HTTPError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, out)
}

// handleSwap is the epoch-swap endpoint: POST /admin/swap?data=PATH
// [&epoch=N] loads a new artifact, slices it for this shard, and flips
// the serving pointer atomically. The response is sent only after the
// new epoch is live; failures leave the current epoch serving.
func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	path := r.FormValue("data")
	if path == "" {
		HTTPError(w, http.StatusBadRequest, "missing data parameter (path to the new artifact)")
		return
	}
	var epoch uint64
	if raw := r.FormValue("epoch"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil || v == 0 {
			HTTPError(w, http.StatusBadRequest, "invalid epoch %q", raw)
			return
		}
		epoch = v
	}
	start := time.Now()
	st, err := s.SwapTo(path, epoch)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case s.cfg.LoadSnapshot == nil:
			status = http.StatusNotImplemented
		case strings.Contains(err.Error(), "stale epoch"):
			status = http.StatusConflict
		}
		HTTPError(w, status, "swap failed: %v", err)
		return
	}
	w.Header().Set(EpochHeader, strconv.FormatUint(st.epoch, 10))
	WriteJSON(w, http.StatusOK, map[string]any{
		"epoch":     st.epoch,
		"path":      st.path,
		"shard":     s.cfg.Shard.String(),
		"countries": len(st.ds.Countries),
		"lists":     st.ds.NumLists(),
		"loadMs":    time.Since(start).Milliseconds(),
	})
}

// handleShardInfo describes this shard for the router: its assignment,
// serving epoch, analysis month, and the canonical country roster /
// month window of the dataset (the full roster, not the slice — the
// router needs the canonical orderings to merge byte-identically).
func (s *Server) handleShardInfo(w http.ResponseWriter, _ *http.Request) {
	st := s.begin(w)
	months := make([]string, len(st.ds.Months))
	for i, m := range st.ds.Months {
		months[i] = m.String()
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"shard":     s.cfg.Shard.String(),
		"epoch":     st.epoch,
		"month":     st.month.String(),
		"countries": st.ds.Countries,
		"months":    months,
		"lists":     st.ds.NumLists(),
		// The artifact behind the serving epoch ("" for the boot
		// dataset) — the supervisor reads it to attribute rollbacks.
		"data": st.path,
	})
}
