package chrome

import (
	"sort"

	"wwb/internal/parallel"
	"wwb/internal/psl"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// The materialise-and-sort reference pipeline: every cell builds a
// full []SiteStats, sorts it once per metric and truncates, every
// cell's result is buffered, and the distribution curves are summed
// in string-keyed maps. It costs O(sites) memory per in-flight cell
// and O(total results) at the fan-in, which is why AssembleCtx
// streams instead — but it is the plain statement of what assembly
// computes, so the equivalence tests and bench_assemble_test.go hold
// the streaming pipeline to its bytes.

// distSample is one site's contribution to the global distribution
// accumulators, with the merged site key precomputed in the worker.
type distSample struct {
	key           string
	loads, timeMS float64
}

// cellResult is everything one cell contributes to the dataset.
type cellResult struct {
	byLoads, byTime   RankList
	covLoads, covTime float64
	hasLoads, hasTime bool
	dist              []distSample // nil unless the cell's month is DistMonth
}

// assembleLegacy is the materialise-and-sort reference pipeline.
func assembleLegacy(w *world.World, tcfg telemetry.Config, opts Options) *Dataset {
	ds, jobs := newDataset(w, opts)
	root := world.NewRNG(opts.Seed)

	// Fan out: sample, threshold, and rank each cell independently.
	// Fork does not mutate the parent stream, so sharing root across
	// workers is race-free.
	results := parallel.Map(len(jobs), func(i int) cellResult {
		j := jobs[i]
		stats := telemetry.SampleCell(cellRNG(root, j), w, tcfg, telemetry.Cell{
			Country: j.country, Platform: j.platform, Month: j.month,
		})
		return buildCell(opts, j, stats)
	})

	// Fan in, in canonical cell order — the documented summation
	// order for the distribution accumulators (each site key receives
	// one contribution per cell, added in job order). The streaming
	// path follows the same order over dense interned accumulators,
	// which is what keeps the two pipelines byte-identical.
	globLoads := map[world.Platform]map[string]float64{
		world.Windows: {}, world.Android: {},
	}
	globTime := map[world.Platform]map[string]float64{
		world.Windows: {}, world.Android: {},
	}
	for i, res := range results {
		j := jobs[i]
		for _, s := range res.dist {
			globLoads[j.platform][s.key] += s.loads
			globTime[j.platform][s.key] += s.timeMS
		}
		ds.lists[listKey(j.country, j.platform, world.PageLoads, j.month)] = res.byLoads
		ds.lists[listKey(j.country, j.platform, world.TimeOnPage, j.month)] = res.byTime
		if res.hasLoads {
			ds.coverage[listKey(j.country, j.platform, world.PageLoads, j.month)] = res.covLoads
		}
		if res.hasTime {
			ds.coverage[listKey(j.country, j.platform, world.TimeOnPage, j.month)] = res.covTime
		}
	}

	for _, p := range world.Platforms {
		ds.dist[distKey(p, world.PageLoads)] = NewDistCurve(values(globLoads[p]))
		ds.dist[distKey(p, world.TimeOnPage)] = NewDistCurve(values(globTime[p]))
	}
	return ds
}

// buildCell thresholds and ranks one cell's stats for both metrics.
// stats arrives unranked (candidate order): each output list is
// sorted exactly once here, by its own metric.
func buildCell(opts Options, j cellJob, stats []telemetry.SiteStats) cellResult {
	var totLoads, totTime float64
	kept := make([]telemetry.SiteStats, 0, len(stats))
	for _, s := range stats {
		totLoads += float64(s.Loads)
		totTime += float64(s.TimeMS)
		if s.Clients >= opts.PrivacyThreshold {
			kept = append(kept, s)
		}
	}

	byLoads := make(RankList, 0, len(kept))
	byTime := make(RankList, 0, len(kept))
	for _, s := range kept {
		byLoads = append(byLoads, Entry{Domain: s.Domain, Value: float64(s.Loads)})
		byTime = append(byTime, Entry{Domain: s.Domain, Value: float64(s.TimeMS)})
	}
	sortList(byLoads)
	sortList(byTime)

	res := cellResult{
		byLoads: byLoads.TopN(opts.TopN),
		byTime:  byTime.TopN(opts.TopN),
	}
	if totLoads > 0 {
		res.covLoads, res.hasLoads = sumValues(res.byLoads)/totLoads, true
	}
	if totTime > 0 {
		res.covTime, res.hasTime = sumValues(res.byTime)/totTime, true
	}
	if j.month == opts.DistMonth {
		res.dist = make([]distSample, len(stats))
		for i, s := range stats {
			res.dist[i] = distSample{
				key:    psl.Default.SiteKey(s.Domain),
				loads:  float64(s.Loads),
				timeMS: float64(s.TimeMS),
			}
		}
	}
	return res
}

func sortList(l RankList) {
	sort.Slice(l, func(i, j int) bool {
		if l[i].Value != l[j].Value {
			return l[i].Value > l[j].Value
		}
		return l[i].Domain < l[j].Domain
	})
}

func values(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
