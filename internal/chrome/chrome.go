// Package chrome assembles the study dataset the way the paper
// describes Chrome's pipeline (Section 3.1): per-(country, platform,
// month) telemetry aggregates become rank-ordered top-N lists per
// popularity metric after privacy thresholding, plus global traffic-
// distribution curves that include sub-threshold sites (the
// distribution data carries no identifying site information, so the
// paper's pipeline may keep all of it).
package chrome

import (
	"context"
	"fmt"
	"sync"

	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// Entry is one row of a rank list: a domain and its metric value
// (loads, or foreground milliseconds).
type Entry struct {
	Domain string  `json:"domain"`
	Value  float64 `json:"value"`
}

// RankList is a descending rank-ordered list of sites for one
// (country, platform, metric, month) cell.
type RankList []Entry

// Domains returns the list's domains in rank order.
func (l RankList) Domains() []string {
	out := make([]string, len(l))
	for i, e := range l {
		out[i] = e.Domain
	}
	return out
}

// TopN returns the first n entries (or the whole list if shorter);
// non-positive n yields an empty list.
func (l RankList) TopN(n int) RankList {
	if n < 0 {
		n = 0
	}
	if n > len(l) {
		n = len(l)
	}
	return l[:n]
}

// Rank returns the 1-based rank of a domain, or 0 if absent.
func (l RankList) Rank(domain string) int {
	for i, e := range l {
		if e.Domain == domain {
			return i + 1
		}
	}
	return 0
}

// Options configures dataset assembly.
type Options struct {
	// PrivacyThreshold is the minimum unique clients a site needs per
	// month to appear in rank lists.
	PrivacyThreshold int64
	// TopN is the rank-list depth (the paper works with top 10K in
	// most countries).
	TopN int
	// DistMonth is the month whose traffic builds the global
	// distribution curves (the paper uses its analysis month).
	DistMonth world.Month
	// Seed drives the sampling streams; independent of the world seed.
	Seed uint64
	// Months restricts assembly; nil means the full study window.
	// DistMonth is always assembled: a restriction that omits it is
	// extended, since the distribution curves cannot be built without
	// that month's telemetry.
	Months []world.Month
}

// DefaultOptions mirrors the paper's setup.
func DefaultOptions() Options {
	return Options{
		PrivacyThreshold: 50,
		TopN:             10000,
		DistMonth:        world.Feb2022,
		Seed:             1,
	}
}

// Dataset is the assembled study dataset.
type Dataset struct {
	Opts      Options
	Countries []string
	Months    []world.Month

	// lists maps cell keys to rank lists.
	lists map[string]RankList
	// dist holds the global distribution curves per platform/metric.
	dist map[string]*DistCurve
	// coverage[countryKey] is the fraction of the cell's total traffic
	// captured by its (thresholded, truncated) rank list.
	coverage map[string]float64

	// mu guards the mutation generation and the memoized index slot.
	// gen counts dataset mutations (month appends); indexGen records
	// the generation the memoized index was built against, so a stale
	// index can never be served after an append (see Index).
	mu       sync.Mutex
	gen      uint64
	index    *KeyIndex
	indexGen uint64
}

// Generation reports how many times the dataset has been mutated by a
// month append. Every dataset-derived memo (the interned index here,
// the analysis cache in core) is keyed by this counter, so a mutation
// can never serve pre-append views.
func (d *Dataset) Generation() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen
}

func listKey(country string, p world.Platform, m world.Metric, month world.Month) string {
	return fmt.Sprintf("%s|%d|%d|%d", country, p, m, month)
}

func distKey(p world.Platform, m world.Metric) string {
	return fmt.Sprintf("%d|%d", p, m)
}

// List returns the rank list for a cell (nil if absent).
func (d *Dataset) List(country string, p world.Platform, m world.Metric, month world.Month) RankList {
	return d.lists[listKey(country, p, m, month)]
}

// Coverage returns the share of the cell's total traffic its rank list
// captures (the paper: top 10K ≈ 70–85 % of desktop traffic).
func (d *Dataset) Coverage(country string, p world.Platform, m world.Metric, month world.Month) float64 {
	return d.coverage[listKey(country, p, m, month)]
}

// Dist returns the global traffic-distribution curve for a platform
// and metric.
func (d *Dataset) Dist(p world.Platform, m world.Metric) *DistCurve {
	return d.dist[distKey(p, m)]
}

// assembledMonths resolves the months a dataset covers: the full study
// window when unrestricted, otherwise the requested months extended
// with DistMonth — without that month's telemetry the distribution
// curves would silently come out empty.
func assembledMonths(opts Options) []world.Month {
	if len(opts.Months) == 0 {
		return world.StudyMonths
	}
	months := append([]world.Month{}, opts.Months...)
	for _, m := range months {
		if m == opts.DistMonth {
			return months
		}
	}
	return append(months, opts.DistMonth)
}

// cellJob identifies one (country, platform, month) sampling cell.
type cellJob struct {
	country  string
	platform world.Platform
	month    world.Month
}

// Assemble samples telemetry for every cell and builds the dataset.
// Cells are sampled on GOMAXPROCS goroutines (each cell forks an
// independent RNG stream keyed by its identity, so sampling order is
// irrelevant) and merged in canonical cell order on the calling
// goroutine; the assembled dataset is byte-identical for every
// GOMAXPROCS.
func Assemble(w *world.World, tcfg telemetry.Config, opts Options) *Dataset {
	// Background contexts never cancel, so the error path is unreachable.
	ds, err := AssembleCtx(context.Background(), w, tcfg, opts)
	if err != nil {
		panic("chrome: Assemble with background context failed: " + err.Error())
	}
	return ds
}

// AssembleCtx is the cancellable Assemble: workers stop pulling cells
// as soon as ctx is done and the call returns the context's error with
// a nil dataset. A nil error guarantees a complete dataset identical
// to Assemble's for every GOMAXPROCS.
//
// Cells stream site stats through bounded top-N selectors and dense
// interned distribution accumulators, O(TopN + workers) memory above
// the output dataset; see stream.go for the pipeline and the memory
// model. The materialise-and-sort reference pipeline it must match
// byte for byte lives with the equivalence tests (oracle_test.go).
func AssembleCtx(ctx context.Context, w *world.World, tcfg telemetry.Config, opts Options) (*Dataset, error) {
	stopHeapWatch := watchHeapPeak()
	defer stopHeapWatch()
	return assembleStreamCtx(ctx, w, tcfg, opts)
}

// newDataset builds the dataset shell and the canonical cell-job
// order shared by the assembly pipeline and its reference oracle. The
// job order is the documented merge order: countries as generated,
// platforms in canonical order, months in assembly order.
func newDataset(w *world.World, opts Options) (*Dataset, []cellJob) {
	months := assembledMonths(opts)
	ds := &Dataset{
		Opts:     opts,
		Months:   months,
		lists:    make(map[string]RankList),
		dist:     make(map[string]*DistCurve),
		coverage: make(map[string]float64),
	}
	jobs := make([]cellJob, 0, len(w.Countries())*len(world.Platforms)*len(months))
	for _, c := range w.Countries() {
		ds.Countries = append(ds.Countries, c.Code)
		for _, p := range world.Platforms {
			for _, month := range months {
				jobs = append(jobs, cellJob{country: c.Code, platform: p, month: month})
			}
		}
	}
	return ds, jobs
}

func cellRNG(root *world.RNG, j cellJob) *world.RNG {
	return root.Fork("cell|" + j.country + "|" + j.platform.String() + "|" + j.month.String())
}

func sumValues(l RankList) float64 {
	var s float64
	for _, e := range l {
		s += e.Value
	}
	return s
}
