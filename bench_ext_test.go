package wwb

// Benchmarks for the extension experiments: the Section 6 sampling-
// strategy comparison, the public-bucket replication study, and the
// ablations of the reproduction's design choices (DESIGN.md §3).

import (
	"testing"

	"wwb/internal/ablation"
	"wwb/internal/analysis"
	"wwb/internal/chrome"
	"wwb/internal/crux"
	"wwb/internal/weblist"
	"wwb/internal/world"
)

func BenchmarkSec6SamplingStrategies(b *testing.B) {
	s := study(b)
	printExperiment(b, "sec6")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.CompareStrategies(s.Dataset, world.Windows, world.PageLoads, s.Month)
	}
}

func BenchmarkCruxReplication(b *testing.B) {
	s := study(b)
	printExperiment(b, "crux")
	records := crux.Export(s.Dataset, s.Month)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeCruxReplication(s.Dataset, records, s.Categorize, world.Windows, s.Month)
	}
}

func BenchmarkCruxExport(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = crux.Export(s.Dataset, s.Month)
	}
}

func BenchmarkAblationRBOVariants(b *testing.B) {
	s := study(b)
	printExperiment(b, "ablation-rbo")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ablation.CompareRBOVariants(s.Dataset, world.Windows, world.PageLoads, s.Month, 10000)
	}
}

func BenchmarkAblationPrivacySweep(b *testing.B) {
	s := study(b)
	printExperiment(b, "ablation-privacy")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ablation.SweepPrivacyThreshold(s.World, s.Cfg.Telemetry, []int64{0, 50, 500, 5000})
	}
}

func BenchmarkAblationDownsampleSweep(b *testing.B) {
	s := study(b)
	printExperiment(b, "ablation-downsample")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ablation.SweepDownsampleRate(s.World, s.Cfg.Telemetry, []float64{0.0005, 0.0035, 0.05, 1})
	}
}

func BenchmarkAblationSeasonality(b *testing.B) {
	s := study(b)
	printExperiment(b, "ablation-seasonality")
	wcfg := s.Cfg.World
	wcfg.TailScale = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ablation.CompareSeasonality(wcfg, s.Cfg.Telemetry)
	}
}

func BenchmarkSec53CountryProfiles(b *testing.B) {
	s := study(b)
	printExperiment(b, "sec5.3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.AnalyzeCountryProfile(s.Dataset, s.Categorize, "KR", world.Windows, world.PageLoads, s.Month)
	}
}

func BenchmarkFig1PowerLawFit(b *testing.B) {
	s := study(b)
	printExperiment(b, "fig1-fit")
	curve := s.Dataset.Dist(world.Windows, world.PageLoads)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.FitPowerLaw(curve, 10, 10000)
	}
}

func BenchmarkListsCompare(b *testing.B) {
	s := study(b)
	printExperiment(b, "lists-compare")
	truth := weblist.BrowsingTop(s.Dataset, s.Month, 10000)
	list := weblist.Build(s.World, weblist.UmbrellaLike, weblist.DefaultOptions(), 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = weblist.Compare(weblist.UmbrellaLike, list, truth, []int{10, 100, 1000})
	}
}

func BenchmarkExtSummerAssembly(b *testing.B) {
	s := study(b)
	printExperiment(b, "ext-summer")
	opts := s.Cfg.Chrome
	opts.Months = []world.Month{world.Jul2022}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = chrome.Assemble(s.World, s.Cfg.Telemetry, opts)
	}
}

func BenchmarkSubstrateWeblistBuild(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = weblist.Build(s.World, weblist.MajesticLike, weblist.DefaultOptions(), 1000)
	}
}
