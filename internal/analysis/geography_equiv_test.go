package analysis

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"wwb/internal/chrome"
	"wwb/internal/dist"
	"wwb/internal/endemicity"
	"wwb/internal/parallel"
	"wwb/internal/ranklist"
	"wwb/internal/rbo"
	"wwb/internal/stats"
	"wwb/internal/taxonomy"
	"wwb/internal/world"
)

// This file pins the ID-based geography kernels to the historical
// string-keyed implementations: the reference functions below are the
// pre-interner code verbatim, and the tests demand reflect.DeepEqual —
// bit-identical floats, identical ordering — at GOMAXPROCS 1 and 8.

// refCountrySimilarity is the pre-interner AnalyzeCountrySimilarity.
func refCountrySimilarity(ds *chrome.Dataset, p world.Platform, m world.Metric, month world.Month, n int) SimilarityMatrix {
	curve := ds.Dist(p, world.PageLoads)
	codes := append([]string{}, ds.Countries...)
	sort.Strings(codes)
	keys := parallel.Map(len(codes), func(i int) []string {
		return ranklist.MergedKeys(ds.List(codes[i], p, m, month).TopN(n))
	})
	sim := make([][]float64, len(codes))
	for i := range sim {
		sim[i] = make([]float64, len(codes))
		sim[i][i] = 1
	}
	weight := curve.WeightAt
	parallel.ForEach(len(codes), func(i int) {
		for j := i + 1; j < len(codes); j++ {
			v := rbo.Weighted(keys[i], keys[j], weight)
			sim[i][j] = v
			sim[j][i] = v
		}
	})
	return SimilarityMatrix{Countries: codes, Sim: sim}
}

// refEndemicity is the pre-interner AnalyzeEndemicity.
func refEndemicity(ds *chrome.Dataset, categorize dist.Categorize, p world.Platform, m world.Metric, month world.Month) EndemicityResult {
	codes := append([]string{}, ds.Countries...)
	sort.Strings(codes)
	perCountry := parallel.Map(len(codes), func(i int) map[string]int {
		return ranklist.KeyRanks(ds.List(codes[i], p, m, month))
	})
	qualifies := map[string]bool{}
	repDomain := map[string]string{}
	repRank := map[string]int{}
	for i := range codes {
		for j, e := range ds.List(codes[i], p, m, month) {
			key := pslKey(e.Domain)
			if j < EntryBar {
				qualifies[key] = true
			}
			if r, ok := repRank[key]; !ok || j+1 < r {
				repRank[key] = j + 1
				repDomain[key] = e.Domain
			}
		}
	}
	keys := make([]string, 0, len(qualifies))
	for k := range qualifies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	res := EndemicityResult{
		ShapeCounts:         map[endemicity.Shape]int{},
		CategoryLabelCounts: map[taxonomy.Category]map[endemicity.Label]int{},
	}
	res.Curves = make([]endemicity.Curve, len(keys))
	shapes := parallel.Map(len(keys), func(k int) endemicity.Shape {
		ranks := map[string]int{}
		for i, c := range codes {
			if r, ok := perCountry[i][keys[k]]; ok {
				ranks[c] = r
			}
		}
		res.Curves[k] = endemicity.BuildCurve(keys[k], ranks, codes)
		return endemicity.ClassifyShape(res.Curves[k])
	})
	soloCount := 0
	for k, curve := range res.Curves {
		res.ShapeCounts[shapes[k]]++
		if curve.PresentIn() <= 1 {
			soloCount++
		}
	}
	if len(keys) > 0 {
		res.EndemicToOneCountry = float64(soloCount) / float64(len(keys))
	}
	res.Labels = endemicity.Classify(res.Curves)
	globals := 0
	for i, curve := range res.Curves {
		label := res.Labels[i]
		if label == endemicity.Global {
			globals++
		}
		cat := categorize(repDomain[curve.Key])
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

// refGlobalShareByBucket is the pre-interner AnalyzeGlobalShareByBucket
// (including its per-bucket MergedKeys recomputation).
func refGlobalShareByBucket(ds *chrome.Dataset, res EndemicityResult, p world.Platform, m world.Metric, month world.Month) []BucketShare {
	globalKeys := map[string]bool{}
	for i, c := range res.Curves {
		if res.Labels[i] == endemicity.Global {
			globalKeys[c.Key] = true
		}
	}
	var out []BucketShare
	for _, b := range RankBuckets {
		var shares []float64
		for _, country := range ds.Countries {
			keys := ranklist.MergedKeys(ds.List(country, p, m, month))
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
			for _, k := range segment {
				if globalKeys[k] {
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

// refPairwiseIntersections is the pre-interner
// AnalyzePairwiseIntersections.
func refPairwiseIntersections(ds *chrome.Dataset, p world.Platform, m world.Metric, month world.Month, buckets []int) []PairwiseIntersectionCurve {
	codes := append([]string{}, ds.Countries...)
	sort.Strings(codes)
	lists := parallel.Map(len(codes), func(i int) []string {
		return ranklist.MergedKeys(ds.List(codes[i], p, m, month))
	})
	var out []PairwiseIntersectionCurve
	for _, bucket := range buckets {
		rows := parallel.Map(len(codes), func(i int) []float64 {
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
				row = append(row, stats.PercentIntersection(a, b))
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

var equivProcs = []int{1, 8}

// withProcs runs fn with GOMAXPROCS set to procs, which sizes every
// analysis pool, and restores the previous setting afterwards. No test
// calls t.Parallel, so the process-wide change is safe.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

func TestCountrySimilarityIDPathEquivalent(t *testing.T) {
	var want, wantShallow, gotShallow SimilarityMatrix
	withProcs(1, func() {
		want = refCountrySimilarity(testDataset, world.Windows, world.PageLoads, feb, 10000)
		// A truncated depth exercises the TopN prefix logic.
		wantShallow = refCountrySimilarity(testDataset, world.Android, world.TimeOnPage, feb, 137)
		gotShallow = AnalyzeCountrySimilarity(testDataset, world.Android, world.TimeOnPage, feb, 137)
	})
	for _, procs := range equivProcs {
		var got SimilarityMatrix
		withProcs(procs, func() {
			got = AnalyzeCountrySimilarity(testDataset, world.Windows, world.PageLoads, feb, 10000)
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: ID-path similarity matrix differs from string path", procs)
		}
	}
	if !reflect.DeepEqual(gotShallow, wantShallow) {
		t.Error("ID-path similarity differs from string path at depth 137")
	}
}

func TestEndemicityIDPathEquivalent(t *testing.T) {
	var want EndemicityResult
	withProcs(1, func() {
		want = refEndemicity(testDataset, trueCat, world.Windows, world.PageLoads, feb)
	})
	for _, procs := range equivProcs {
		var got EndemicityResult
		withProcs(procs, func() {
			got = AnalyzeEndemicity(testDataset, trueCat, world.Windows, world.PageLoads, feb)
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: ID-path endemicity differs from string path", procs)
		}
	}
}

func TestGlobalShareByBucketIDPathEquivalent(t *testing.T) {
	var res EndemicityResult
	withProcs(1, func() {
		res = AnalyzeEndemicity(testDataset, trueCat, world.Windows, world.PageLoads, feb)
	})
	want := refGlobalShareByBucket(testDataset, res, world.Windows, world.PageLoads, feb)
	got := AnalyzeGlobalShareByBucket(testDataset, res, world.Windows, world.PageLoads, feb)
	if !reflect.DeepEqual(got, want) {
		t.Error("ID-path global-share buckets differ from string path")
	}
}

func TestPairwiseIntersectionsIDPathEquivalent(t *testing.T) {
	buckets := []int{10, 137, 1000, 10000}
	var want []PairwiseIntersectionCurve
	withProcs(1, func() {
		want = refPairwiseIntersections(testDataset, world.Windows, world.PageLoads, feb, buckets)
	})
	for _, procs := range equivProcs {
		var got []PairwiseIntersectionCurve
		withProcs(procs, func() {
			got = AnalyzePairwiseIntersections(testDataset, world.Windows, world.PageLoads, feb, buckets)
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: ID-path pairwise intersections differ from string path", procs)
		}
	}
}
