package analysis

import (
	"sort"
	"sync"

	"wwb/internal/chrome"
	"wwb/internal/cluster"
	"wwb/internal/dist"
	"wwb/internal/endemicity"
	"wwb/internal/keyset"
	"wwb/internal/parallel"
	"wwb/internal/rbo"
	"wwb/internal/stats"
	"wwb/internal/taxonomy"
	"wwb/internal/world"
)

// SimilarityMatrix is the Figure 10 heatmap: pairwise traffic-weighted
// RBO between the countries' top-10K lists.
type SimilarityMatrix struct {
	Countries []string
	Sim       [][]float64
}

// AnalyzeCountrySimilarity builds the pairwise weighted-RBO matrix for
// one platform and metric, with rank weights drawn from the platform's
// page-loads distribution curve (Section 5.3.1 replaces RBO's
// geometric weights with the measured traffic distribution). The
// country pairs are scored on GOMAXPROCS goroutines; every pair lands
// in fixed matrix slots, so the result is identical for any
// GOMAXPROCS.
//
// The kernel runs on the dataset's interned key IDs: each country's
// merged top-N key list comes precomputed from the index, and the
// ~n²/2 weighted-RBO calls reuse per-worker epoch-stamped scratch
// buffers instead of hashing strings into two fresh maps per pair.
// Results are bit-identical to the historical string-keyed path.
func AnalyzeCountrySimilarity(ds *chrome.Dataset, p world.Platform, m world.Metric, month world.Month, n int) SimilarityMatrix {
	curve := ds.Dist(p, world.PageLoads)
	codes := append([]string{}, ds.Countries...)
	sort.Strings(codes)
	ix := ds.Index()

	// Cross-country comparisons merge ccTLD variants first.
	keys := parallel.Map(len(codes), func(i int) []chrome.KeyID {
		return ix.MergedIDsTopN(codes[i], p, m, month, n)
	})
	sim := make([][]float64, len(codes))
	for i := range sim {
		sim[i] = make([]float64, len(codes))
		sim[i][i] = 1
	}
	weight := curve.WeightAt
	scratch := sync.Pool{New: func() any { return rbo.NewScratch(ix.NumKeys()) }}
	// Row i fills sim[i][j] and sim[j][i] for j > i only, so rows
	// write disjoint cells and can run concurrently.
	parallel.ForEach(len(codes), func(i int) {
		scr := scratch.Get().(*rbo.Scratch)
		defer scratch.Put(scr)
		for j := i + 1; j < len(codes); j++ {
			v := rbo.WeightedIDs(keys[i], keys[j], weight, scr)
			sim[i][j] = v
			sim[j][i] = v
		}
	})
	return SimilarityMatrix{Countries: codes, Sim: sim}
}

// CountryCluster is one cluster of browsing-similar countries.
type CountryCluster struct {
	Exemplar   string
	Members    []string
	Silhouette float64
}

// ClusterResult is the Figure 11 / 21 outcome.
type ClusterResult struct {
	Clusters []CountryCluster
	// AvgSilhouette is the overall silhouette coefficient (the paper
	// reports a weak 0.11 — country clusters are loose).
	AvgSilhouette float64
	Converged     bool
}

// AnalyzeCountryClusters runs affinity propagation on a similarity
// matrix and validates with silhouettes.
func AnalyzeCountryClusters(sm SimilarityMatrix) ClusterResult {
	res := cluster.AffinityPropagation(sm.Sim, cluster.DefaultAPOptions())
	distM := cluster.DistanceFromSimilarity(sm.Sim)
	_, avg := cluster.Silhouette(distM, res.Assignment)
	byCluster := cluster.SilhouetteByCluster(distM, res.Assignment)

	members := map[int][]string{}
	for i, ex := range res.Assignment {
		members[ex] = append(members[ex], sm.Countries[i])
	}
	out := ClusterResult{AvgSilhouette: avg, Converged: res.Converged}
	for _, ex := range res.Exemplars {
		ms := members[ex]
		sort.Strings(ms)
		out.Clusters = append(out.Clusters, CountryCluster{
			Exemplar:   sm.Countries[ex],
			Members:    ms,
			Silhouette: byCluster[ex],
		})
	}
	sort.Slice(out.Clusters, func(i, j int) bool {
		return out.Clusters[i].Exemplar < out.Clusters[j].Exemplar
	})
	return out
}

// EndemicityResult bundles the Section 5.1–5.2 analyses.
type EndemicityResult struct {
	// Curves for every site ranking in the top-EntryBar of at least
	// one country, with per-country ranks from top-10K lists.
	Curves []endemicity.Curve
	// Labels[i] classifies Curves[i] (Figure 7).
	Labels []endemicity.Label
	// GlobalShare is the fraction labelled globally popular (the paper:
	// ≈2 %, Table 2).
	GlobalShare float64
	// ShapeCounts tallies the Figure 6 / Table 1 curve shapes.
	ShapeCounts map[endemicity.Shape]int
	// CategoryLabelCounts counts global vs national sites per category
	// (Figure 8).
	CategoryLabelCounts map[taxonomy.Category]map[endemicity.Label]int
	// EndemicToOneCountry is the fraction of entry-bar sites that
	// appear in no other country's top-10K (the paper: 53.9 %).
	EndemicToOneCountry float64
}

// EntryBar is the rank a site must reach in at least one country to be
// scored (the paper computes endemicity for sites in some top 1K).
const EntryBar = 1000

// AnalyzeEndemicity runs the popularity-curve pipeline for one
// platform and metric. The per-country rank maps and the per-site
// popularity curves are built on GOMAXPROCS goroutines; both fan-outs
// write index-addressed slots, so the result is identical for any
// GOMAXPROCS.
func AnalyzeEndemicity(ds *chrome.Dataset, categorize dist.Categorize, p world.Platform, m world.Metric, month world.Month) EndemicityResult {
	codes := append([]string{}, ds.Countries...)
	sort.Strings(codes)
	ix := ds.Index()
	nk := ix.NumKeys()

	// Merged-key rank per country, as dense rank-by-KeyID arrays
	// (0 = absent). The index already holds each cell's deduped keys
	// with first occurrences, so no string is parsed or hashed here.
	perCountry := parallel.Map(len(codes), func(i int) []int32 {
		ranks := make([]int32, nk)
		ids, firstPos := ix.KeyRankIDs(codes[i], p, m, month)
		for k, id := range ids {
			ranks[id] = firstPos[k] + 1
		}
		return ranks
	})

	// Sites qualifying via the entry bar, and a representative domain
	// for categorisation (the best-ranked domain observed). Only a
	// key's first occurrence in a list can qualify it or improve its
	// representative rank, so the deduped index view suffices.
	qualifies := make([]bool, nk)
	repRank := make([]int32, nk)
	repDomain := make([]string, nk)
	for i := range codes {
		list := ds.List(codes[i], p, m, month)
		ids, firstPos := ix.KeyRankIDs(codes[i], p, m, month)
		for k, id := range ids {
			pos := firstPos[k]
			if int(pos) < EntryBar {
				qualifies[id] = true
			}
			if repRank[id] == 0 || pos+1 < repRank[id] {
				repRank[id] = pos + 1
				repDomain[id] = list[pos].Domain
			}
		}
	}

	// Ascending KeyID order is lexicographic key order by construction,
	// matching the sorted-keys iteration of the string path.
	keyIDs := make([]chrome.KeyID, 0, len(qualifies))
	for id, q := range qualifies {
		if q {
			keyIDs = append(keyIDs, chrome.KeyID(id))
		}
	}

	res := EndemicityResult{
		ShapeCounts:         map[endemicity.Shape]int{},
		CategoryLabelCounts: map[taxonomy.Category]map[endemicity.Label]int{},
	}
	// Curves are independent per site; shapes are classified in the
	// same fan-out. The shared tallies are folded sequentially below.
	res.Curves = make([]endemicity.Curve, len(keyIDs))
	shapes := parallel.Map(len(keyIDs), func(k int) endemicity.Shape {
		id := keyIDs[k]
		ranks := map[string]int{}
		for i, c := range codes {
			if r := perCountry[i][id]; r != 0 {
				ranks[c] = int(r)
			}
		}
		res.Curves[k] = endemicity.BuildCurve(ix.Key(id), ranks, codes)
		return endemicity.ClassifyShape(res.Curves[k])
	})
	soloCount := 0
	for k, curve := range res.Curves {
		res.ShapeCounts[shapes[k]]++
		if curve.PresentIn() <= 1 {
			soloCount++
		}
	}
	if len(keyIDs) > 0 {
		res.EndemicToOneCountry = float64(soloCount) / float64(len(keyIDs))
	}

	res.Labels = endemicity.Classify(res.Curves)
	globals := 0
	for i := range res.Curves {
		label := res.Labels[i]
		if label == endemicity.Global {
			globals++
		}
		cat := categorize(repDomain[keyIDs[i]])
		byLabel := res.CategoryLabelCounts[cat]
		if byLabel == nil {
			byLabel = map[endemicity.Label]int{}
			res.CategoryLabelCounts[cat] = byLabel
		}
		byLabel[label]++
	}
	if len(res.Curves) > 0 {
		res.GlobalShare = float64(globals) / float64(len(res.Curves))
	}
	return res
}

// GlobalShareByBucket computes Figure 9: for each rank bucket, the
// median (across countries) share of that bucket's sites that are
// globally popular.
type BucketShare struct {
	Lo, Hi         int // bucket covers ranks [Lo, Hi]
	Median, Q1, Q3 float64
}

// RankBuckets are the Figure 9 buckets.
var RankBuckets = [][2]int{
	{1, 10}, {11, 20}, {21, 50}, {51, 100}, {101, 200}, {201, 500}, {501, 1000},
}

// AnalyzeGlobalShareByBucket computes, per rank bucket and country,
// the share of globally popular sites, summarised by median and
// quartiles. The per-country merged key lists come from the dataset
// index (computed once, not once per bucket) and the global-site test
// is a dense []bool indexed by KeyID.
func AnalyzeGlobalShareByBucket(ds *chrome.Dataset, res EndemicityResult, p world.Platform, m world.Metric, month world.Month) []BucketShare {
	ix := ds.Index()
	globalIDs := make([]bool, ix.NumKeys())
	for i, c := range res.Curves {
		if res.Labels[i] == endemicity.Global {
			if id, ok := ix.ID(c.Key); ok {
				globalIDs[id] = true
			}
		}
	}
	countryKeys := make([][]chrome.KeyID, len(ds.Countries))
	for i, country := range ds.Countries {
		countryKeys[i] = ix.MergedIDs(country, p, m, month)
	}
	var out []BucketShare
	for _, b := range RankBuckets {
		var shares []float64
		for i := range ds.Countries {
			keys := countryKeys[i]
			if len(keys) < b[0] {
				continue
			}
			hi := b[1]
			if hi > len(keys) {
				hi = len(keys)
			}
			segment := keys[b[0]-1 : hi]
			if len(segment) == 0 {
				continue
			}
			g := 0
			for _, id := range segment {
				if globalIDs[id] {
					g++
				}
			}
			shares = append(shares, float64(g)/float64(len(segment)))
		}
		q1, med, q3 := stQuartiles(shares)
		out = append(out, BucketShare{Lo: b[0], Hi: b[1], Median: med, Q1: q1, Q3: q3})
	}
	return out
}

// PairwiseIntersectionCurve is Figure 12: for one rank bucket, the
// descending-sorted cumulative sum of pairwise percent intersections
// over all country pairs.
type PairwiseIntersectionCurve struct {
	Bucket int
	// Cumulative[i] is the cumulative sum after the (i+1)-th largest
	// pairwise intersection.
	Cumulative []float64
	// Mean intersection across pairs, a scalar summary.
	Mean float64
}

// AnalyzePairwiseIntersections computes Figure 12 for the given rank
// buckets. Country-pair rows are scored on GOMAXPROCS goroutines and
// concatenated in row order, so the per-pair value sequence — and
// hence the float sums behind Mean — matches the sequential double
// loop exactly.
func AnalyzePairwiseIntersections(ds *chrome.Dataset, p world.Platform, m world.Metric, month world.Month, buckets []int) []PairwiseIntersectionCurve {
	codes := append([]string{}, ds.Countries...)
	sort.Strings(codes)
	ix := ds.Index()
	lists := parallel.Map(len(codes), func(i int) []chrome.KeyID {
		return ix.MergedIDs(codes[i], p, m, month)
	})
	// Per-worker epoch-stamped scratch pairs for the intersection
	// kernel; one pair serves every comparison a worker performs.
	type interScratch struct{ a, b *keyset.Set }
	scratch := sync.Pool{New: func() any {
		return &interScratch{a: keyset.New(ix.NumKeys()), b: keyset.New(ix.NumKeys())}
	}}
	var out []PairwiseIntersectionCurve
	for _, bucket := range buckets {
		rows := parallel.Map(len(codes), func(i int) []float64 {
			scr := scratch.Get().(*interScratch)
			defer scratch.Put(scr)
			a := lists[i]
			if len(a) > bucket {
				a = a[:bucket]
			}
			row := make([]float64, 0, len(codes)-i-1)
			for j := i + 1; j < len(codes); j++ {
				b := lists[j]
				if len(b) > bucket {
					b = b[:bucket]
				}
				row = append(row, stats.PercentIntersectionIDs(a, b, scr.a, scr.b))
			}
			return row
		})
		var vals []float64
		for _, row := range rows {
			vals = append(vals, row...)
		}
		out = append(out, PairwiseIntersectionCurve{
			Bucket:     bucket,
			Cumulative: stats.CumulativeSortedDesc(vals),
			Mean:       stats.Mean(vals),
		})
	}
	return out
}
