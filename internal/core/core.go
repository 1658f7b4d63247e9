// Package core orchestrates the full study pipeline: generate the
// synthetic web universe, sample telemetry, assemble the Chrome-style
// dataset, run the categorisation workflow, and expose every analysis
// from the paper's Sections 4 and 5. It is the engine behind the
// public wwb package, the command-line tools, and the benchmark
// harness.
package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"wwb/internal/analysis"
	"wwb/internal/catapi"
	"wwb/internal/chaos"
	"wwb/internal/chrome"
	"wwb/internal/metrics"
	"wwb/internal/taxonomy"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// Config bundles the configuration of every pipeline stage.
type Config struct {
	World     world.Config
	Telemetry telemetry.Config
	Chrome    chrome.Options
	CatAPI    catapi.ServiceConfig
	// SamplesPerCategory is the validation sample size (the paper
	// manually checks ten random sites per category).
	SamplesPerCategory int
	// Chaos injects deterministic transport faults into the
	// categorisation path (see internal/chaos). The zero value is off:
	// study output is then byte-identical to a build without the fault
	// machinery. With faults on, degraded domains surface as
	// taxonomy.Uncategorized, deterministically per chaos seed.
	Chaos chaos.Config
}

// DefaultConfig is the full-size calibrated study.
func DefaultConfig() Config {
	return Config{
		World:              world.DefaultConfig(),
		Telemetry:          telemetry.DefaultConfig(),
		Chrome:             chrome.DefaultOptions(),
		CatAPI:             catapi.DefaultServiceConfig(),
		SamplesPerCategory: 10,
	}
}

// SmallConfig is a reduced study for fast tests and examples.
func SmallConfig() Config {
	cfg := DefaultConfig()
	cfg.World = world.SmallConfig()
	return cfg
}

// FebOnly restricts a config to the analysis month, skipping the five
// other monthly assemblies (a large speed-up when temporal analyses
// are not needed).
func (c Config) FebOnly() Config {
	c.Chrome.Months = []world.Month{world.Feb2022}
	return c
}

// Study is a fully assembled reproduction study.
type Study struct {
	Cfg         Config
	World       *world.World
	Dataset     *chrome.Dataset
	Service     *catapi.Service
	Validation  *catapi.Validation
	Categorizer *catapi.Categorizer
	// Client is the resilient categorisation client behind the
	// Categorizer: retries, backoff, degradation. It labels every
	// world domain once, in NewCtx; its Stats expose how much chaos
	// the study absorbed.
	Client *catapi.Client
	// labels is the API label of every domain the world can produce.
	labels map[string]taxonomy.Category

	// Month is the analysis month (the paper uses February 2022).
	Month world.Month

	mu    sync.Mutex
	cache map[string]*memoEntry
}

// New runs the pipeline end to end.
func New(cfg Config) *Study {
	// Background contexts never cancel, so the error path is unreachable.
	s, err := NewCtx(context.Background(), cfg)
	if err != nil {
		panic("core: New with background context failed: " + err.Error())
	}
	return s
}

// NewCtx runs the pipeline end to end under a context: cancelling it
// mid-generation or mid-assembly (the dominant costs) returns promptly
// with the context error and no study. A nil error guarantees a study identical to
// New's.
func NewCtx(ctx context.Context, cfg Config) (*Study, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	genStart := time.Now()
	w, err := world.GenerateCtx(ctx, cfg.World)
	if err != nil {
		return nil, err
	}
	metrics.ObserveStage("world.generate", time.Since(genStart))
	ds, err := chrome.AssembleCtx(ctx, w, cfg.Telemetry, cfg.Chrome)
	if err != nil {
		return nil, err
	}
	svc := catapi.NewService(w, cfg.CatAPI)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	validateStart := time.Now()
	validation := catapi.Validate(svc, cfg.SamplesPerCategory)
	metrics.ObserveStage("catapi.validate", time.Since(validateStart))

	verifyStart := time.Now()
	month := cfg.Chrome.DistMonth
	verified := verifyTopDomains(svc, ds, month)
	metrics.ObserveStage("catapi.verify", time.Since(verifyStart))

	// Label every domain the world can produce once, as the paper
	// labels each domain once. Labelling always runs through the
	// resilient client; with chaos off the transport is infallible, so
	// the labels are the service's own. Every dataset domain, in any
	// month, is a world domain, so the analyses only read the table.
	transport := catapi.NewServiceTransport(svc)
	if cfg.Chaos.Enabled() {
		transport = catapi.NewFlakyTransport(transport, cfg.Chaos)
	}
	client := catapi.NewClient(transport)
	labelStart := time.Now()
	labels, err := client.Label(ctx, w.Domains())
	if err != nil {
		return nil, err
	}
	metrics.ObserveStage("catapi.label", time.Since(labelStart))

	return &Study{
		Cfg:         cfg,
		World:       w,
		Dataset:     ds,
		Service:     svc,
		Validation:  validation,
		Categorizer: catapi.NewCategorizer(client, labels, validation, verified),
		Client:      client,
		labels:      labels,
		Month:       month,
		cache:       map[string]*memoEntry{},
	}, nil
}

// verifyTopDomains is the manual verification pass (Section 3.2): the
// authors verified search engines and social networks within the top
// 100 sites of every country. Collect those domains for the analysis
// month and verify them against the oracle. The pass is month-bound,
// so a roll of the analysis month re-runs it (see AppendMonth).
func verifyTopDomains(svc *catapi.Service, ds *chrome.Dataset, month world.Month) map[string]taxonomy.Category {
	candidates := map[string]struct{}{}
	for _, country := range ds.Countries {
		for _, p := range world.Platforms {
			for _, m := range world.Metrics {
				for _, e := range ds.List(country, p, m, month).TopN(100) {
					candidates[e.Domain] = struct{}{}
				}
			}
		}
	}
	domains := make([]string, 0, len(candidates))
	for d := range candidates {
		domains = append(domains, d)
	}
	verified := catapi.VerifyDomains(svc, domains, taxonomy.SearchEngines)
	for d, c := range catapi.VerifyDomains(svc, domains, taxonomy.SocialNetworks) {
		verified[d] = c
	}
	return verified
}

// Categorize maps a domain to its study category.
func (s *Study) Categorize(domain string) taxonomy.Category {
	return s.Categorizer.Category(domain)
}

// memoEntry is one single-flight cache slot: the Once admits exactly
// one compute per key, and every other caller blocks on it and reads
// the finished value.
type memoEntry struct {
	once sync.Once
	val  any
}

// memo caches an analysis result under a key with per-key
// single-flight: N concurrent requests for an uncached analysis run
// one compute, not N (the study is served concurrently, and analyses
// like CountrySimilarity are too expensive to thunder-herd). The study
// lock guards only the key→entry map, so computes for different keys —
// including analyses that depend on other memoized analyses — still
// run freely in parallel.
//
// Every key is prefixed with the dataset's mutation generation: after
// a month append the old entries can never be served again, even for
// a mutation that bypassed Study.AppendMonth's explicit cache purge.
// (A compute that straddles the append may still observe the old
// dataset — single-flight admits it before the bump — but it lands
// under the old generation's key, where no post-append caller looks.)
func memo[T any](s *Study, key string, compute func() T) T {
	var gen uint64
	if s.Dataset != nil {
		gen = s.Dataset.Generation()
	}
	key = strconv.FormatUint(gen, 10) + "|" + key
	s.mu.Lock()
	e := s.cache[key]
	if e == nil {
		e = new(memoEntry)
		s.cache[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.val = compute() })
	return e.val.(T)
}

// AppendMonth rolls the study's dataset forward one month in place
// (see chrome.AppendMonthCtx), keeping the study's own view of the
// configuration consistent and purging the memoized analysis cache:
// month-dependent results — the temporal and drift analyses read the
// new month directly, everything keyed on the analysis month moves
// when RollDist promotes the appended month to DistMonth — recompute
// on next request against the mutated dataset. Like the underlying
// append, this must not race with concurrent readers of the study.
func (s *Study) AppendMonth(ctx context.Context, aopts chrome.AppendOptions) (*chrome.Increment, error) {
	inc, err := chrome.AppendMonthCtx(ctx, s.Dataset, s.World, s.Cfg.Telemetry, aopts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.cache = map[string]*memoEntry{}
	s.mu.Unlock()
	s.Cfg.Chrome = inc.Opts
	if aopts.RollDist {
		// The analysis month moved: the Section 3.2 verification pass
		// is bound to it, so the categorizer is rebuilt from the new
		// month's top-100 lists — exactly what a fresh study over the
		// extended window would verify. The labels are
		// month-independent and carry over.
		s.Month = aopts.Month
		verifyStart := time.Now()
		verified := verifyTopDomains(s.Service, s.Dataset, s.Month)
		metrics.ObserveStage("catapi.verify", time.Since(verifyStart))
		s.Categorizer = catapi.NewCategorizer(s.Client, s.labels, s.Validation, verified)
	}
	return inc, nil
}

// Concentration runs the Section 4.1 analysis (Figure 1).
func (s *Study) Concentration(p world.Platform, m world.Metric) analysis.Concentration {
	return memo(s, "conc|"+p.String()+m.String(), func() analysis.Concentration {
		return analysis.AnalyzeConcentration(s.Dataset, p, m, s.Month)
	})
}

// UseCases runs the Figure 2 breakdown.
func (s *Study) UseCases(p world.Platform, m world.Metric, n int) analysis.CategoryBreakdown {
	key := "use|" + p.String() + m.String() + strconv.Itoa(n)
	return memo(s, key, func() analysis.CategoryBreakdown {
		return analysis.AnalyzeUseCases(s.Dataset, s.Categorize, p, m, s.Month, n)
	})
}

// TopTenPresence runs the Section 4.2.1 per-category country counts.
func (s *Study) TopTenPresence(p world.Platform, m world.Metric) map[taxonomy.Category]int {
	key := "top10|" + p.String() + m.String()
	return memo(s, key, func() map[taxonomy.Category]int {
		return analysis.TopTenPresence(s.Dataset, s.Categorize, p, m, s.Month)
	})
}

// PrevalenceByRank runs the Figure 3 sweep for the given categories:
// out[i] is cats[i]'s series. The result is shared; do not modify it.
func (s *Study) PrevalenceByRank(cats []taxonomy.Category, p world.Platform, m world.Metric, thresholds []int) [][]analysis.PrevalencePoint {
	key := fmt.Sprintf("prev|%s|%s|%q|%v", p, m, cats, thresholds)
	return memo(s, key, func() [][]analysis.PrevalencePoint {
		return analysis.PrevalenceByRank(s.Dataset, s.Categorize, cats, p, m, s.Month, thresholds)
	})
}

// PlatformDiff runs Figure 4 (PageLoads) / Figure 15 (TimeOnPage).
func (s *Study) PlatformDiff(m world.Metric, n int) []analysis.PlatformDiff {
	key := "pdiff|" + m.String() + strconv.Itoa(n)
	return memo(s, key, func() []analysis.PlatformDiff {
		return analysis.AnalyzePlatformDiff(s.Dataset, s.Categorize, m, s.Month, n, 0.05, 5)
	})
}

// MetricAgreement runs the Section 4.4 intersection/Spearman analysis.
func (s *Study) MetricAgreement(p world.Platform, n int) analysis.MetricAgreement {
	key := "magree|" + p.String() + strconv.Itoa(n)
	return memo(s, key, func() analysis.MetricAgreement {
		return analysis.AnalyzeMetricAgreement(s.Dataset, p, s.Month, n)
	})
}

// MetricLean runs the Figure 5 / 16 lean analysis.
func (s *Study) MetricLean(p world.Platform, n int) []analysis.CategoryLean {
	key := "mlean|" + p.String() + strconv.Itoa(n)
	return memo(s, key, func() []analysis.CategoryLean {
		return analysis.AnalyzeMetricLean(s.Dataset, s.Categorize, p, s.Month, n)
	})
}

// Temporal runs the Section 4.5 stability rows.
func (s *Study) Temporal(p world.Platform, m world.Metric, pairs []analysis.MonthPair, buckets []int) []analysis.TemporalRow {
	return analysis.AnalyzeTemporal(s.Dataset, p, m, pairs, buckets)
}

// CategoryDrift runs the Section 4.5 category-share drift.
func (s *Study) CategoryDrift(p world.Platform, m world.Metric, n int) map[world.Month]map[taxonomy.Category]float64 {
	return analysis.CategoryDrift(s.Dataset, s.Categorize, p, m, n)
}

// CountrySimilarity runs the Figure 10 weighted-RBO matrix.
func (s *Study) CountrySimilarity(p world.Platform, m world.Metric) analysis.SimilarityMatrix {
	key := "sim|" + p.String() + m.String()
	return memo(s, key, func() analysis.SimilarityMatrix {
		return analysis.AnalyzeCountrySimilarity(s.Dataset, p, m, s.Month, s.Cfg.Chrome.TopN)
	})
}

// CountryClusters runs Figure 11 / 21 on a similarity matrix.
func (s *Study) CountryClusters(p world.Platform, m world.Metric) analysis.ClusterResult {
	key := "clus|" + p.String() + m.String()
	return memo(s, key, func() analysis.ClusterResult {
		return analysis.AnalyzeCountryClusters(s.CountrySimilarity(p, m))
	})
}

// Endemicity runs the Section 5.1–5.2 pipeline.
func (s *Study) Endemicity(p world.Platform, m world.Metric) analysis.EndemicityResult {
	key := "endem|" + p.String() + m.String()
	return memo(s, key, func() analysis.EndemicityResult {
		return analysis.AnalyzeEndemicity(s.Dataset, s.Categorize, p, m, s.Month)
	})
}

// GlobalShareByBucket runs Figure 9 / 17.
func (s *Study) GlobalShareByBucket(p world.Platform, m world.Metric) []analysis.BucketShare {
	key := "gbucket|" + p.String() + m.String()
	return memo(s, key, func() []analysis.BucketShare {
		return analysis.AnalyzeGlobalShareByBucket(s.Dataset, s.Endemicity(p, m), p, m, s.Month)
	})
}

// PairwiseIntersections runs Figure 12.
func (s *Study) PairwiseIntersections(p world.Platform, m world.Metric, buckets []int) []analysis.PairwiseIntersectionCurve {
	return analysis.AnalyzePairwiseIntersections(s.Dataset, p, m, s.Month, buckets)
}
