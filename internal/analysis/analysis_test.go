package analysis

import (
	"math"
	"sort"
	"testing"

	"wwb/internal/chrome"
	"wwb/internal/dist"
	"wwb/internal/endemicity"
	"wwb/internal/psl"
	"wwb/internal/taxonomy"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// Shared fixtures: a small universe with all six months assembled, and
// a ground-truth categoriser (analysis correctness is tested in
// isolation from categorisation noise; the catapi integration is
// covered by internal/core's tests).
var (
	testWorld   = world.Generate(world.SmallConfig())
	testDataset = chrome.Assemble(testWorld, telemetry.DefaultConfig(), chrome.DefaultOptions())
	feb         = world.Feb2022
)

func trueCat(domain string) taxonomy.Category {
	if s, ok := testWorld.SiteByKey(psl.Default.SiteKey(domain)); ok {
		return s.Category
	}
	return taxonomy.Unknown
}

func TestConcentrationHeadlines(t *testing.T) {
	c := AnalyzeConcentration(testDataset, world.Windows, world.PageLoads, feb)
	// Median top-1 national share near the paper's 20 % (12–33 % band).
	if c.MedianTop1 < 0.12 || c.MedianTop1 > 0.3 {
		t.Errorf("median top-1 share = %.3f, want ≈0.20", c.MedianTop1)
	}
	// Google tops the vast majority of countries; Naver tops Korea.
	if c.TopSiteCounts["google"] < 40 {
		t.Errorf("google tops %d countries, want ≥40", c.TopSiteCounts["google"])
	}
	if c.TopSite["KR"] != "naver" {
		t.Errorf("KR top site = %s, want naver", c.TopSite["KR"])
	}
	// Cumulative shares are monotone in N.
	prev := 0.0
	for _, n := range ConcentrationRanks {
		if c.CumShare[n] < prev-1e-9 {
			t.Errorf("CumShare not monotone at %d", n)
		}
		prev = c.CumShare[n]
	}
	// A handful of sites cover a quarter of global traffic.
	if c.SitesFor25 < 2 || c.SitesFor25 > 40 {
		t.Errorf("sites for 25%% = %d, want single digits to tens", c.SitesFor25)
	}
}

func TestConcentrationTimeMoreConcentrated(t *testing.T) {
	loads := AnalyzeConcentration(testDataset, world.Windows, world.PageLoads, feb)
	times := AnalyzeConcentration(testDataset, world.Windows, world.TimeOnPage, feb)
	// Section 4.1: half of user time is spent on very few sites; time
	// needs no more sites than loads to reach 50 %.
	if times.SitesFor50 > loads.SitesFor50 {
		t.Errorf("time SitesFor50 = %d > loads %d", times.SitesFor50, loads.SitesFor50)
	}
	// YouTube captures the most time in most countries.
	if times.TopSiteCounts["youtube"] < 30 {
		t.Errorf("youtube tops time in %d countries, want ≥30", times.TopSiteCounts["youtube"])
	}
}

func TestTopSiteLeadersSorted(t *testing.T) {
	c := AnalyzeConcentration(testDataset, world.Windows, world.PageLoads, feb)
	leaders := c.TopSiteLeaders()
	if len(leaders) == 0 || leaders[0].Key != "google" {
		t.Fatalf("leaders = %v", leaders)
	}
	for i := 1; i < len(leaders); i++ {
		if leaders[i].Count > leaders[i-1].Count {
			t.Fatal("leaders not sorted")
		}
	}
}

func TestUseCasesSearchVsVideo(t *testing.T) {
	byLoads := AnalyzeUseCases(testDataset, trueCat, world.Windows, world.PageLoads, feb, 10000)
	// Search engines capture the plurality of page loads (20–25 % in
	// the paper).
	top := byLoads.TopCategories()
	if top[0] != taxonomy.SearchEngines {
		t.Errorf("top weighted category by loads = %q, want Search Engines", top[0])
	}
	if s := byLoads.ByWeight[taxonomy.SearchEngines]; s < 0.15 || s > 0.35 {
		t.Errorf("search share of loads = %.3f, want ≈0.20–0.25", s)
	}
	// Video streaming captures the plurality of desktop time.
	byTime := AnalyzeUseCases(testDataset, trueCat, world.Windows, world.TimeOnPage, feb, 10000)
	if byTime.TopCategories()[0] != taxonomy.VideoStreaming {
		t.Errorf("top weighted category by time = %q, want Video Streaming", byTime.TopCategories()[0])
	}
}

func TestUseCasesSharesSumToOne(t *testing.T) {
	b := AnalyzeUseCases(testDataset, trueCat, world.Android, world.PageLoads, feb, 10000)
	var count, weight float64
	for _, v := range b.ByCount {
		count += v
	}
	for _, v := range b.ByWeight {
		weight += v
	}
	if math.Abs(count-1) > 1e-6 || math.Abs(weight-1) > 1e-6 {
		t.Errorf("shares sum: count=%v weight=%v, want 1", count, weight)
	}
}

func TestUseCasesMobileAdultTime(t *testing.T) {
	// Section 4.2.2: on mobile, adult content captures the plurality
	// of time on page.
	b := AnalyzeUseCases(testDataset, trueCat, world.Android, world.TimeOnPage, feb, 10000)
	top := b.TopCategories()
	if top[0] != taxonomy.Pornography && top[1] != taxonomy.Pornography {
		t.Errorf("mobile time leaders = %v, want Pornography near the top", top[:3])
	}
}

func TestTopTenPresence(t *testing.T) {
	pres := TopTenPresence(testDataset, trueCat, world.Windows, world.PageLoads, feb)
	// Section 4.2.1: every country has a search engine in its top ten.
	if pres[taxonomy.SearchEngines] != 45 {
		t.Errorf("search engines present in %d countries' top-10, want 45", pres[taxonomy.SearchEngines])
	}
	// Social networks are in nearly every top ten.
	if pres[taxonomy.SocialNetworks] < 35 {
		t.Errorf("social networks in %d countries, want ≥35", pres[taxonomy.SocialNetworks])
	}
}

func TestPrevalenceByRank(t *testing.T) {
	all := PrevalenceByRank(testDataset, trueCat, []taxonomy.Category{taxonomy.Business}, world.Windows, world.PageLoads, feb,
		[]int{10, 100, 1000, 10000})
	if len(all) != 1 {
		t.Fatalf("series = %d", len(all))
	}
	pts := all[0]
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Median < 0 || p.Median > 1 || p.Q1 > p.Median+1e-12 || p.Q3 < p.Median-1e-12 {
			t.Errorf("bad point %+v", p)
		}
	}
	// Business is disproportionately long-tail (Figure 3): its share
	// of the top-10K exceeds its share of the top-10.
	if pts[3].Median <= pts[0].Median {
		t.Errorf("business should grow with rank: top10=%.3f top10K=%.3f", pts[0].Median, pts[3].Median)
	}
}

// TestPrevalenceByRankMatchesCountShare checks the one-pass sweep
// against its definition: per threshold, the median and quartiles of
// dist.CountShare over the countries with a list. Thresholds are
// unsorted and include 0 and one past every list's length; a category
// is requested twice.
func TestPrevalenceByRankMatchesCountShare(t *testing.T) {
	cats := []taxonomy.Category{taxonomy.VideoStreaming, taxonomy.Business, taxonomy.NewsMedia, taxonomy.Business}
	thresholds := []int{1000, 10, 0, 1 << 30, 30, 10}
	for _, m := range []world.Metric{world.PageLoads, world.TimeOnPage} {
		got := PrevalenceByRank(testDataset, trueCat, cats, world.Android, m, feb, thresholds)
		for c, cat := range cats {
			for i, n := range thresholds {
				var shares []float64
				for _, country := range testDataset.Countries {
					if list := testDataset.List(country, world.Android, m, feb); len(list) > 0 {
						shares = append(shares, dist.CountShare(list, n, trueCat)[cat])
					}
				}
				q1, med, q3 := stQuartiles(shares)
				want := PrevalencePoint{N: n, Median: med, Q1: q1, Q3: q3}
				if got[c][i] != want {
					t.Errorf("%s %s N=%d: got %+v, want %+v", m, cat, n, got[c][i], want)
				}
			}
		}
	}
}

func TestPlatformDiffDirections(t *testing.T) {
	diffs := AnalyzePlatformDiff(testDataset, trueCat, world.PageLoads, feb, 10000, 0.05, 5)
	if len(diffs) < 5 {
		t.Fatalf("only %d significant categories", len(diffs))
	}
	byCat := map[taxonomy.Category]PlatformDiff{}
	for _, d := range diffs {
		byCat[d.Category] = d
		if d.Score < -1 || d.Score > 1 {
			t.Errorf("%q score %v out of range", d.Category, d.Score)
		}
		if d.SignificantCountries < 5 {
			t.Errorf("%q kept with %d significant countries", d.Category, d.SignificantCountries)
		}
	}
	// Figure 4's direction findings.
	if d, ok := byCat[taxonomy.Pornography]; !ok || d.Score <= 0 {
		t.Errorf("Pornography should be mobile-leaning: %+v", byCat[taxonomy.Pornography])
	}
	if d, ok := byCat[taxonomy.EducationalInstitutions]; !ok || d.Score >= 0 {
		t.Errorf("Educational Institutions should be desktop-leaning: %+v", byCat[taxonomy.EducationalInstitutions])
	}
	if d, ok := byCat[taxonomy.Webmail]; !ok || d.Score >= 0 {
		t.Errorf("Webmail should be desktop-leaning: %+v", byCat[taxonomy.Webmail])
	}
	// Sorted descending by score.
	for i := 1; i < len(diffs); i++ {
		if diffs[i].Score > diffs[i-1].Score {
			t.Fatal("diffs not sorted")
		}
	}
}

func TestMetricAgreementBands(t *testing.T) {
	// Compare at a depth below the assembled list length: at full
	// depth both metrics keep the identical thresholded site set (the
	// small universe has < 10K sites per country), so truncation is
	// what creates set differences — as with the paper's top-10K
	// slices of a much longer web.
	a := AnalyzeMetricAgreement(testDataset, world.Windows, feb, 400)
	// The paper: ~65 % intersection, ~0.65 Spearman on desktop. Bands
	// are generous — the small universe is noisier.
	if a.MedianIntersection < 0.35 || a.MedianIntersection > 0.97 {
		t.Errorf("median intersection = %.3f, want moderate", a.MedianIntersection)
	}
	if a.MedianSpearman < 0.2 || a.MedianSpearman > 0.99 {
		t.Errorf("median Spearman = %.3f, want moderate-strong", a.MedianSpearman)
	}
	if len(a.PerCountry) != 45 {
		t.Errorf("countries = %d, want 45", len(a.PerCountry))
	}
}

func TestMetricLeanDirections(t *testing.T) {
	leans := AnalyzeMetricLean(testDataset, trueCat, world.Windows, feb, 10000)
	byCat := map[taxonomy.Category]CategoryLean{}
	for _, l := range leans {
		byCat[l.Category] = l
	}
	// Figure 5: e-commerce is loads-leaning; video streaming and
	// movies are time-leaning.
	if l, ok := byCat[taxonomy.Ecommerce]; !ok || l.Share[LeanLoads] <= l.Share[LeanTime] {
		t.Errorf("Ecommerce should lean loads: %+v", byCat[taxonomy.Ecommerce].Share)
	}
	if l, ok := byCat[taxonomy.VideoStreaming]; !ok || l.Share[LeanTime] <= l.Share[LeanLoads] {
		t.Errorf("Video Streaming should lean time: %+v", byCat[taxonomy.VideoStreaming].Share)
	}
}

func TestLeanGroupStrings(t *testing.T) {
	if LeanLoads.String() != "loads-leaning" || LeanTime.String() != "time-leaning" || LeanNeither.String() != "other" {
		t.Error("lean strings wrong")
	}
}

func TestTemporalStability(t *testing.T) {
	rows := AnalyzeTemporal(testDataset, world.Windows, world.PageLoads, AdjacentPairs(), []int{20, 10000})
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10 (5 pairs × 2 buckets)", len(rows))
	}
	var decTop20, otherTop20 []float64
	for _, r := range rows {
		if r.MedianIntersection < 0 || r.MedianIntersection > 1 {
			t.Errorf("bad intersection %v", r.MedianIntersection)
		}
		if r.Bucket == 20 {
			if r.MedianIntersection < 0.5 {
				t.Errorf("%v top-20 intersection = %.3f, want high month-over-month stability", r.Pair, r.MedianIntersection)
			}
			if r.Pair.A == world.Dec2021 || r.Pair.B == world.Dec2021 {
				decTop20 = append(decTop20, r.MedianIntersection)
			} else {
				otherTop20 = append(otherTop20, r.MedianIntersection)
			}
		}
	}
	// December pairs should not be the most stable (Section 4.5).
	var decMean, otherMean float64
	for _, v := range decTop20 {
		decMean += v
	}
	decMean /= float64(len(decTop20))
	for _, v := range otherTop20 {
		otherMean += v
	}
	otherMean /= float64(len(otherTop20))
	if decMean > otherMean+0.02 {
		t.Errorf("December pairs more stable (%.3f) than others (%.3f)", decMean, otherMean)
	}
}

func TestMonthPairHelpers(t *testing.T) {
	if len(AdjacentPairs()) != 5 || len(BaselinePairs()) != 5 {
		t.Error("pair helpers wrong length")
	}
	p := MonthPair{world.Sep2021, world.Oct2021}
	if p.String() != "2021-09→2021-10" {
		t.Errorf("pair string = %q", p.String())
	}
}

func TestCategoryDriftDecember(t *testing.T) {
	drift := CategoryDrift(testDataset, trueCat, world.Windows, world.PageLoads, 10000)
	if len(drift) != 6 {
		t.Fatalf("months = %d, want 6", len(drift))
	}
	// December: e-commerce share of lists rises vs November, education
	// falls (Section 4.5). Count-based shares move with the privacy
	// threshold as seasonal traffic shifts sites across it.
	nov, dec := drift[world.Nov2021], drift[world.Dec2021]
	if dec[taxonomy.Ecommerce] < nov[taxonomy.Ecommerce]*0.98 {
		t.Errorf("December e-commerce %.4f should not fall vs November %.4f",
			dec[taxonomy.Ecommerce], nov[taxonomy.Ecommerce])
	}
	if dec[taxonomy.EducationalInstitutions] > nov[taxonomy.EducationalInstitutions]*1.02 {
		t.Errorf("December education %.4f should not rise vs November %.4f",
			dec[taxonomy.EducationalInstitutions], nov[taxonomy.EducationalInstitutions])
	}
}

func TestCountrySimilarityMatrix(t *testing.T) {
	sm := AnalyzeCountrySimilarity(testDataset, world.Windows, world.PageLoads, feb, 10000)
	n := len(sm.Countries)
	if n != 45 {
		t.Fatalf("countries = %d", n)
	}
	for i := 0; i < n; i++ {
		if sm.Sim[i][i] != 1 {
			t.Errorf("diag[%d] = %v", i, sm.Sim[i][i])
		}
		for j := 0; j < n; j++ {
			if sm.Sim[i][j] != sm.Sim[j][i] {
				t.Fatalf("asymmetric at %d,%d", i, j)
			}
			if sm.Sim[i][j] < 0 || sm.Sim[i][j] > 1 {
				t.Fatalf("similarity out of range: %v", sm.Sim[i][j])
			}
		}
	}
	idx := map[string]int{}
	for i, c := range sm.Countries {
		idx[c] = i
	}
	// Shared-language neighbours are more similar than cross-region
	// pairs (Section 5.3.1): Argentina–Mexico vs Argentina–Japan.
	if sm.Sim[idx["AR"]][idx["MX"]] <= sm.Sim[idx["AR"]][idx["JP"]] {
		t.Error("AR–MX should exceed AR–JP similarity")
	}
	// North-African cluster is tight.
	if sm.Sim[idx["DZ"]][idx["MA"]] <= sm.Sim[idx["DZ"]][idx["DE"]] {
		t.Error("DZ–MA should exceed DZ–DE similarity")
	}
}

func TestCountryClusters(t *testing.T) {
	sm := AnalyzeCountrySimilarity(testDataset, world.Windows, world.PageLoads, feb, 10000)
	res := AnalyzeCountryClusters(sm)
	if len(res.Clusters) < 2 {
		t.Fatalf("clusters = %d, want several", len(res.Clusters))
	}
	// Every country appears exactly once.
	seen := map[string]bool{}
	total := 0
	for _, c := range res.Clusters {
		for _, m := range c.Members {
			if seen[m] {
				t.Fatalf("%s in two clusters", m)
			}
			seen[m] = true
			total++
		}
	}
	if total != 45 {
		t.Errorf("clustered countries = %d, want 45", total)
	}
	// Clusters are weak overall in the paper (avg SC 0.11); accept a
	// generous band but demand it is not degenerate.
	if res.AvgSilhouette < -0.3 || res.AvgSilhouette > 0.9 {
		t.Errorf("avg silhouette = %.3f", res.AvgSilhouette)
	}
	// Spanish-speaking Latin America should mostly cluster together:
	// find the cluster containing MX and count Latin members.
	latam := map[string]bool{"AR": true, "BO": true, "CL": true, "CO": true, "CR": true,
		"DO": true, "EC": true, "GT": true, "MX": true, "PA": true, "PE": true, "UY": true, "VE": true}
	for _, c := range res.Clusters {
		hasMX := false
		for _, m := range c.Members {
			if m == "MX" {
				hasMX = true
			}
		}
		if hasMX {
			count := 0
			for _, m := range c.Members {
				if latam[m] {
					count++
				}
			}
			if count < 4 {
				t.Errorf("MX cluster has only %d Latin American members: %v", count, c.Members)
			}
		}
	}
}

func TestEndemicityAnalysis(t *testing.T) {
	res := AnalyzeEndemicity(testDataset, trueCat, world.Windows, world.PageLoads, feb)
	if len(res.Curves) < 1000 {
		t.Fatalf("curves = %d, want thousands", len(res.Curves))
	}
	if len(res.Labels) != len(res.Curves) {
		t.Fatal("labels/curves length mismatch")
	}
	// The vast majority of sites are nationally popular (paper: 98 %).
	if res.GlobalShare < 0.003 || res.GlobalShare > 0.2 {
		t.Errorf("global share = %.4f, want small (≈0.02)", res.GlobalShare)
	}
	// A large fraction of entry-bar sites appear in only one country
	// (paper: 53.9 %).
	if res.EndemicToOneCountry < 0.2 || res.EndemicToOneCountry > 0.9 {
		t.Errorf("endemic-to-one share = %.3f, want ≈0.5", res.EndemicToOneCountry)
	}
	// google must be labelled global; a Korean forum national.
	labelOf := map[string]endemicity.Label{}
	for i, c := range res.Curves {
		labelOf[c.Key] = res.Labels[i]
	}
	if labelOf["google"] != endemicity.Global {
		t.Error("google should be globally popular")
	}
	if l, ok := labelOf["dcinside"]; ok && l != endemicity.National {
		t.Error("dcinside should be nationally popular")
	}
	// All six shapes should have names; counts must total the curves.
	total := 0
	for _, n := range res.ShapeCounts {
		total += n
	}
	if total != len(res.Curves) {
		t.Errorf("shape counts %d != curves %d", total, len(res.Curves))
	}
}

func TestGlobalShareByBucketDeclines(t *testing.T) {
	res := AnalyzeEndemicity(testDataset, trueCat, world.Windows, world.PageLoads, feb)
	buckets := AnalyzeGlobalShareByBucket(testDataset, res, world.Windows, world.PageLoads, feb)
	if len(buckets) != len(RankBuckets) {
		t.Fatalf("buckets = %d", len(buckets))
	}
	// Figure 9: global sites dominate the top-10 but thin out with
	// rank; the 101–200 bucket is mostly national.
	first, last := buckets[0], buckets[4]
	if first.Median < 0.3 {
		t.Errorf("top-10 global share = %.3f, want ≥0.3 (paper 6–7/10)", first.Median)
	}
	if last.Median >= first.Median {
		t.Errorf("global share should decline: top10=%.3f ranks101-200=%.3f", first.Median, last.Median)
	}
	if last.Median > 0.5 {
		t.Errorf("ranks 101–200 global share = %.3f, want mostly national", last.Median)
	}
}

func TestPairwiseIntersections(t *testing.T) {
	curves := AnalyzePairwiseIntersections(testDataset, world.Windows, world.PageLoads, feb, []int{10, 1000})
	if len(curves) != 2 {
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		if len(c.Cumulative) != 45*44/2 {
			t.Errorf("bucket %d: pairs = %d, want 990", c.Bucket, len(c.Cumulative))
		}
		if !sort.Float64sAreSorted(c.Cumulative) {
			t.Errorf("bucket %d: cumulative not monotone", c.Bucket)
		}
		if c.Mean < 0 || c.Mean > 1 {
			t.Errorf("bucket %d: mean %v", c.Bucket, c.Mean)
		}
	}
	// Figure 12: countries agree more at the head than in the tail.
	if curves[0].Mean <= curves[1].Mean {
		t.Errorf("top-10 agreement (%.3f) should exceed top-1000 (%.3f)", curves[0].Mean, curves[1].Mean)
	}
}
