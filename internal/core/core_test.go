package core

import (
	"testing"

	"wwb/internal/analysis"
	"wwb/internal/taxonomy"
	"wwb/internal/world"
)

// testStudy is shared read-only across tests (analyses are memoized
// behind a mutex, so concurrent subtests are safe too).
var testStudy = New(SmallConfig())

func TestStudyPipelineAssembled(t *testing.T) {
	if testStudy.World == nil || testStudy.Dataset == nil || testStudy.Categorizer == nil {
		t.Fatal("pipeline stages missing")
	}
	if len(testStudy.Dataset.Countries) != 45 {
		t.Errorf("countries = %d", len(testStudy.Dataset.Countries))
	}
	if testStudy.Month != world.Feb2022 {
		t.Errorf("analysis month = %v", testStudy.Month)
	}
	if testStudy.Validation == nil || len(testStudy.Validation.PerCategory) == 0 {
		t.Error("validation missing")
	}
}

// TestLabelTableHoldsExactlyTheWorldsDomains: the study labels every
// domain the world can produce (each site's canonical domain and each
// multi-TLD site's domain in every country) and nothing else, and every
// domain of every dataset list is among them.
func TestLabelTableHoldsExactlyTheWorldsDomains(t *testing.T) {
	w := testStudy.World
	for _, s := range w.Sites() {
		if _, ok := testStudy.labels[s.Domain()]; !ok {
			t.Fatalf("%s not labelled", s.Domain())
		}
		for _, c := range w.Countries() {
			if _, ok := testStudy.labels[s.DomainIn(c)]; !ok {
				t.Fatalf("%s (in %s) not labelled", s.DomainIn(c), c.Code)
			}
		}
	}
	for _, d := range []string{"", "com", "probe1.co.uk", "www.google.com", "google.zz", "google.com.evil"} {
		if _, ok := testStudy.labels[d]; ok {
			t.Errorf("%q labelled", d)
		}
	}
	ds := testStudy.Dataset
	for _, c := range ds.Countries {
		for _, p := range world.Platforms {
			for _, m := range world.Metrics {
				for _, month := range ds.Months {
					for _, e := range ds.List(c, p, m, month) {
						if _, ok := testStudy.labels[e.Domain]; !ok {
							t.Fatalf("dataset domain %s (%s %s) not labelled", e.Domain, c, month)
						}
					}
				}
			}
		}
	}
}

func TestStudyCategorizeVerifiedSearch(t *testing.T) {
	// The manual-verification pass must label the top search engines
	// correctly even though the API is unreliable for them.
	for _, d := range []string{"naver.com", "yandex.ru"} {
		if got := testStudy.Categorize(d); got != taxonomy.SearchEngines {
			t.Errorf("%s = %q, want Search Engines (verified)", d, got)
		}
	}
	// Google's localised domains are in every top-100, so every
	// variant seen there verifies; spot check one.
	if got := testStudy.Categorize("google.us"); got != taxonomy.SearchEngines {
		t.Errorf("google.us = %q, want Search Engines", got)
	}
}

func TestStudyConcentrationMemoized(t *testing.T) {
	a := testStudy.Concentration(world.Windows, world.PageLoads)
	b := testStudy.Concentration(world.Windows, world.PageLoads)
	if a.MedianTop1 != b.MedianTop1 {
		t.Error("memoized results differ")
	}
	if a.TopSiteCounts["google"] < 40 {
		t.Errorf("google tops %d countries", a.TopSiteCounts["google"])
	}
}

func TestStudyUseCasesWithNoisyCategorizer(t *testing.T) {
	// Even through categorisation noise, search engines must capture
	// the plurality of desktop page-load weight.
	b := testStudy.UseCases(world.Windows, world.PageLoads, 10000)
	if b.TopCategories()[0] != taxonomy.SearchEngines {
		t.Errorf("top category = %q", b.TopCategories()[0])
	}
}

func TestStudyEndemicityAndBuckets(t *testing.T) {
	res := testStudy.Endemicity(world.Windows, world.PageLoads)
	if res.GlobalShare <= 0 || res.GlobalShare > 0.2 {
		t.Errorf("global share = %v", res.GlobalShare)
	}
	buckets := testStudy.GlobalShareByBucket(world.Windows, world.PageLoads)
	if len(buckets) == 0 || buckets[0].Median < buckets[len(buckets)-1].Median {
		t.Errorf("bucket shares should decline: %v", buckets)
	}
}

func TestStudyClusters(t *testing.T) {
	res := testStudy.CountryClusters(world.Windows, world.PageLoads)
	if len(res.Clusters) < 2 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	total := 0
	for _, c := range res.Clusters {
		total += len(c.Members)
	}
	if total != 45 {
		t.Errorf("clustered = %d", total)
	}
}

func TestStudyTemporalAndDrift(t *testing.T) {
	rows := testStudy.Temporal(world.Windows, world.PageLoads, analysis.AdjacentPairs(), []int{100})
	if len(rows) != 5 {
		t.Fatalf("temporal rows = %d", len(rows))
	}
	drift := testStudy.CategoryDrift(world.Windows, world.PageLoads, 10000)
	if len(drift) != 6 {
		t.Errorf("drift months = %d", len(drift))
	}
}

func TestStudyMetricAnalyses(t *testing.T) {
	ag := testStudy.MetricAgreement(world.Windows, 400)
	if len(ag.PerCountry) != 45 {
		t.Errorf("agreement countries = %d", len(ag.PerCountry))
	}
	leans := testStudy.MetricLean(world.Windows, 10000)
	if len(leans) == 0 {
		t.Error("no lean rows")
	}
	diffs := testStudy.PlatformDiff(world.PageLoads, 10000)
	if len(diffs) == 0 {
		t.Error("no platform diffs")
	}
	pts := testStudy.PrevalenceByRank([]taxonomy.Category{taxonomy.Business}, world.Windows, world.PageLoads, []int{10, 1000})
	if len(pts) != 1 || len(pts[0]) != 2 {
		t.Error("prevalence points missing")
	}
	pres := testStudy.TopTenPresence(world.Windows, world.PageLoads)
	if pres[taxonomy.SearchEngines] != 45 {
		t.Errorf("search in %d top-10s", pres[taxonomy.SearchEngines])
	}
	inter := testStudy.PairwiseIntersections(world.Windows, world.PageLoads, []int{10})
	if len(inter) != 1 || len(inter[0].Cumulative) != 990 {
		t.Error("pairwise intersections malformed")
	}
}

func TestFebOnlySpeedsAssembly(t *testing.T) {
	cfg := SmallConfig().FebOnly()
	if len(cfg.Chrome.Months) != 1 || cfg.Chrome.Months[0] != world.Feb2022 {
		t.Fatalf("FebOnly months = %v", cfg.Chrome.Months)
	}
	s := New(cfg)
	if len(s.Dataset.List("US", world.Windows, world.PageLoads, world.Feb2022)) == 0 {
		t.Error("February list missing")
	}
	if len(s.Dataset.List("US", world.Windows, world.PageLoads, world.Sep2021)) != 0 {
		t.Error("September should not be assembled under FebOnly")
	}
}

func TestMemoConcurrentSafe(t *testing.T) {
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			testStudy.Concentration(world.Android, world.TimeOnPage)
			testStudy.UseCases(world.Android, world.PageLoads, 100)
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
