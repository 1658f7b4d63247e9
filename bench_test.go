package wwb

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (DESIGN.md §3 maps IDs to benches). Each
// benchmark measures the underlying analysis on the full default-scale
// dataset and, once per run, prints the rendered table/series so
// `go test -bench=. -benchmem | tee bench_output.txt` doubles as the
// reproduction log compared in EXPERIMENTS.md.

import (
	"fmt"
	"sync"
	"testing"

	"wwb/internal/analysis"
	"wwb/internal/catapi"
	"wwb/internal/cluster"
	"wwb/internal/core"
	"wwb/internal/endemicity"
	"wwb/internal/experiments"
	"wwb/internal/psl"
	"wwb/internal/rbo"
	"wwb/internal/stats"
	"wwb/internal/taxonomy"
	"wwb/internal/world"
)

var (
	benchOnce  sync.Once
	benchStudy *core.Study
	printed    sync.Map
)

// study lazily builds the shared default-scale study (all six months).
func study(b *testing.B) *core.Study {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy = core.New(core.DefaultConfig())
	})
	return benchStudy
}

// printExperiment renders an experiment once per process so the bench
// log contains the reproduced rows exactly once.
func printExperiment(b *testing.B, id string) {
	b.Helper()
	if _, dup := printed.LoadOrStore(id, true); dup {
		return
	}
	out, err := (experiments.Runner{Study: benchStudy}).Run(id)
	if err != nil {
		b.Fatal(err)
	}
	fmt.Println(out)
}

func BenchmarkFig1TrafficConcentration(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeConcentration(s.Dataset, world.Windows, world.PageLoads, s.Month)
	}
}

func BenchmarkSec41HeadlineStats(b *testing.B) {
	s := study(b)
	printExperiment(b, "sec4.1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeConcentration(s.Dataset, world.Windows, world.TimeOnPage, s.Month)
	}
}

func BenchmarkFig2CategoryBreakdown(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeUseCases(s.Dataset, s.Categorize, world.Windows, world.PageLoads, s.Month, 10000)
	}
}

func BenchmarkTable4TopTenLongTail(b *testing.B) {
	s := study(b)
	printExperiment(b, "table4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.TopTenPresence(s.Dataset, s.Categorize, world.Windows, world.PageLoads, s.Month)
	}
}

func BenchmarkFig3CategoryPrevalenceByRank(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig3")
	thresholds := []int{10, 30, 50, 100, 300, 1000, 3000, 10000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.PrevalenceByRank(s.Dataset, s.Categorize, taxonomy.Business,
			world.Windows, world.PageLoads, s.Month, thresholds)
	}
}

func BenchmarkFig14PrevalenceSplitByMetric(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig14")
	thresholds := []int{10, 100, 1000, 10000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.PrevalenceByRank(s.Dataset, s.Categorize, taxonomy.VideoStreaming,
			world.Windows, world.TimeOnPage, s.Month, thresholds)
	}
}

func BenchmarkFig4PlatformDiffPageLoads(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzePlatformDiff(s.Dataset, s.Categorize, world.PageLoads, s.Month, 10000, 0.05, 5)
	}
}

func BenchmarkFig15PlatformDiffTime(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig15")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzePlatformDiff(s.Dataset, s.Categorize, world.TimeOnPage, s.Month, 10000, 0.05, 5)
	}
}

func BenchmarkSec44MetricAgreement(b *testing.B) {
	s := study(b)
	printExperiment(b, "sec4.4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeMetricAgreement(s.Dataset, world.Windows, s.Month, 10000)
	}
}

func BenchmarkFig5MetricLeaningCategories(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeMetricLean(s.Dataset, s.Categorize, world.Windows, s.Month, 10000)
	}
}

func BenchmarkFig16MetricLeaningMobile(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig16")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeMetricLean(s.Dataset, s.Categorize, world.Android, s.Month, 10000)
	}
}

func BenchmarkSec45TemporalStability(b *testing.B) {
	s := study(b)
	printExperiment(b, "sec4.5")
	pairs := analysis.AdjacentPairs()
	buckets := []int{20, 100, 10000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeTemporal(s.Dataset, world.Windows, world.PageLoads, pairs, buckets)
	}
}

func BenchmarkFig6PopularityCurveShapes(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig6")
	res := s.Endemicity(world.Windows, world.PageLoads)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range res.Curves {
			_ = endemicity.ClassifyShape(c)
		}
	}
}

func BenchmarkFig7EndemicityDistribution(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig7")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeEndemicity(s.Dataset, s.Categorize, world.Windows, world.PageLoads, s.Month)
	}
}

func BenchmarkTable2GlobalVsNationalRarity(b *testing.B) {
	s := study(b)
	printExperiment(b, "table2")
	res := s.Endemicity(world.Windows, world.PageLoads)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = endemicity.Classify(res.Curves)
	}
}

func BenchmarkFig8GlobalNationalCategories(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig8")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeEndemicity(s.Dataset, s.Categorize, world.Android, world.PageLoads, s.Month)
	}
}

func BenchmarkFig9GlobalShareByRankBucket(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig9")
	res := s.Endemicity(world.Windows, world.PageLoads)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeGlobalShareByBucket(s.Dataset, res, world.Windows, world.PageLoads, s.Month)
	}
}

func BenchmarkFig17GlobalShareByBucketTime(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig17")
	res := s.Endemicity(world.Windows, world.TimeOnPage)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeGlobalShareByBucket(s.Dataset, res, world.Windows, world.TimeOnPage, s.Month)
	}
}

func BenchmarkFig10CountrySimilarityRBO(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig10")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeCountrySimilarity(s.Dataset, world.Windows, world.PageLoads, s.Month, 10000)
	}
}

func BenchmarkFig18SimilarityWindowsTime(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig18")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeCountrySimilarity(s.Dataset, world.Windows, world.TimeOnPage, s.Month, 10000)
	}
}

func BenchmarkFig19SimilarityAndroidLoads(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig19")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeCountrySimilarity(s.Dataset, world.Android, world.PageLoads, s.Month, 10000)
	}
}

func BenchmarkFig20SimilarityAndroidTime(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig20")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeCountrySimilarity(s.Dataset, world.Android, world.TimeOnPage, s.Month, 10000)
	}
}

func BenchmarkFig11CountryClusters(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig11")
	sm := s.CountrySimilarity(world.Windows, world.PageLoads)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeCountryClusters(sm)
	}
}

func BenchmarkFig12PairwiseIntersectionCDF(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig12")
	buckets := []int{10, 100, 1000, 10000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzePairwiseIntersections(s.Dataset, world.Windows, world.PageLoads, s.Month, buckets)
	}
}

func BenchmarkFig13CategoryAccuracy(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig13")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = catapi.Validate(s.Service, s.Cfg.SamplesPerCategory)
	}
}

func BenchmarkTable3Taxonomy(b *testing.B) {
	study(b)
	printExperiment(b, "table3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = taxonomy.Table3Categories()
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks: the building blocks the analyses lean on.

func BenchmarkSubstrateWorldGenerateSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = world.Generate(world.SmallConfig())
	}
}

func BenchmarkSubstrateWeightedRBO10K(b *testing.B) {
	s := study(b)
	sm := s.Dataset
	curve := sm.Dist(world.Windows, world.PageLoads)
	a := sm.List("US", world.Windows, world.PageLoads, s.Month).Domains()
	c := sm.List("GB", world.Windows, world.PageLoads, s.Month).Domains()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rbo.Weighted(a, c, curve.WeightAt)
	}
}

func BenchmarkSubstrateWeightedRBOIDs10K(b *testing.B) {
	// The interned counterpart of BenchmarkSubstrateWeightedRBO10K:
	// same country pair, same weights, dense IDs plus reused scratch.
	s := study(b)
	ds := s.Dataset
	ix := ds.Index()
	curve := ds.Dist(world.Windows, world.PageLoads)
	a := ix.MergedIDsTopN("US", world.Windows, world.PageLoads, s.Month, 10000)
	c := ix.MergedIDsTopN("GB", world.Windows, world.PageLoads, s.Month, 10000)
	scr := rbo.NewScratch(ix.NumKeys())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rbo.WeightedIDs(a, c, curve.WeightAt, scr)
	}
}

func BenchmarkSubstrateAffinityPropagation45(b *testing.B) {
	s := study(b)
	sm := s.CountrySimilarity(world.Windows, world.PageLoads)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cluster.AffinityPropagation(sm.Sim, cluster.DefaultAPOptions())
	}
}

func BenchmarkSubstrateFisherExact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = stats.FisherExact(52000, 48000, 148000, 152000)
	}
}

func BenchmarkSubstrateEndemicityScore(b *testing.B) {
	ranks := make([]int, 45)
	for i := range ranks {
		ranks[i] = 1 + i*211%endemicity.AbsentRank
	}
	c := endemicity.NewCurve("bench", ranks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Score()
	}
}

func BenchmarkSubstratePSLSiteKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = psl.Default.SiteKey("www.google.co.uk")
	}
}

func BenchmarkSubstrateSpearman10K(b *testing.B) {
	xs := make([]float64, 10000)
	ys := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i * 7919 % 10007)
		ys[i] = float64(i * 104729 % 10007)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stats.Spearman(xs, ys)
	}
}
