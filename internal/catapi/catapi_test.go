package catapi

import (
	"context"
	"testing"

	"wwb/internal/taxonomy"
	"wwb/internal/world"
)

var (
	testWorld = world.Generate(world.SmallConfig())
	testSvc   = NewService(testWorld, DefaultServiceConfig())
)

// testLabels labels every test-world domain through an infallible
// client, as a study does.
func testLabels(t *testing.T) (*Client, map[string]taxonomy.Category) {
	t.Helper()
	c := NewClient(NewServiceTransport(testSvc))
	labels, err := c.Label(context.Background(), testWorld.Domains())
	if err != nil {
		t.Fatal(err)
	}
	return c, labels
}

func TestLookupDeterministic(t *testing.T) {
	for _, d := range []string{"google.com", "netflix.com", "naver.com"} {
		a, b := testSvc.Lookup(d), testSvc.Lookup(d)
		if a != b {
			t.Errorf("%s: label flapped %q vs %q", d, a, b)
		}
	}
}

func TestLookupUnknownDomain(t *testing.T) {
	if got := testSvc.Lookup("never-seen-before.example"); got != taxonomy.Unknown {
		t.Errorf("unknown domain labelled %q", got)
	}
}

func TestLookupAccuracyRates(t *testing.T) {
	// Measured accuracy over all sites should track the configured
	// per-category rates: high for regular categories, low for the
	// flagship two.
	correct := map[taxonomy.Category]int{}
	total := map[taxonomy.Category]int{}
	for _, s := range testWorld.Sites() {
		label := testSvc.Lookup(s.Domain())
		total[s.Category]++
		if label == s.Category {
			correct[s.Category]++
		}
	}
	check := func(cat taxonomy.Category, lo, hi float64) {
		if total[cat] == 0 {
			t.Fatalf("no sites in %q", cat)
		}
		acc := float64(correct[cat]) / float64(total[cat])
		if acc < lo || acc > hi {
			t.Errorf("%q accuracy = %.2f, want [%.2f, %.2f] over %d sites", cat, acc, lo, hi, total[cat])
		}
	}
	check(taxonomy.NewsMedia, 0.85, 1.0)
	check(taxonomy.Ecommerce, 0.85, 1.0)
	check(taxonomy.SearchEngines, 0.2, 0.75)
}

func TestValidateDropsDegradedCategories(t *testing.T) {
	// A 10-site sample is deliberately luck-dependent (the paper's
	// own workflow); assert the drop at a sample size where the law of
	// large numbers makes the outcome deterministic.
	big := Validate(testSvc, 200)
	if !big.IsDropped(taxonomy.SearchEngines) || !big.IsDropped(taxonomy.SocialNetworks) {
		t.Error("flagship categories should fail the 80% bar at large sample sizes")
	}
	v := Validate(testSvc, 10)
	if v.IsDropped(taxonomy.NewsMedia) {
		t.Error("News & Media should survive validation")
	}
	// Every category appears exactly once in the report.
	seen := map[taxonomy.Category]bool{}
	for _, row := range v.PerCategory {
		if seen[row.Category] {
			t.Fatalf("duplicate row for %q", row.Category)
		}
		seen[row.Category] = true
		if row.Sampled > 10 {
			t.Errorf("%q sampled %d > 10", row.Category, row.Sampled)
		}
		if row.Correct+row.Maybe+row.Incorrect != row.Sampled {
			t.Errorf("%q counts do not add up", row.Category)
		}
	}
	if len(seen) != len(taxonomy.All()) {
		t.Errorf("validation covered %d categories, want %d", len(seen), len(taxonomy.All()))
	}
}

func TestValidateDeterministic(t *testing.T) {
	a := Validate(testSvc, 10)
	b := Validate(testSvc, 10)
	if len(a.PerCategory) != len(b.PerCategory) {
		t.Fatal("row counts differ")
	}
	for i := range a.PerCategory {
		if a.PerCategory[i] != b.PerCategory[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a.PerCategory[i], b.PerCategory[i])
		}
	}
}

func TestCategoryAccuracyValue(t *testing.T) {
	c := CategoryAccuracy{Correct: 6, Maybe: 2, Incorrect: 2, Sampled: 10}
	if got := c.Accuracy(); got != 0.8 {
		t.Errorf("accuracy = %v, want 0.8", got)
	}
	if (CategoryAccuracy{}).Accuracy() != 0 {
		t.Error("empty sample accuracy should be 0")
	}
}

func TestVerifyDomains(t *testing.T) {
	domains := []string{"google.com", "naver.com", "netflix.com", "bogus.example"}
	verified := VerifyDomains(testSvc, domains, taxonomy.SearchEngines)
	if _, ok := verified["google.com"]; !ok {
		t.Error("google.com should verify as a search engine")
	}
	if _, ok := verified["naver.com"]; !ok {
		t.Error("naver.com should verify as a search engine")
	}
	if _, ok := verified["netflix.com"]; ok {
		t.Error("netflix.com is not a search engine")
	}
	if _, ok := verified["bogus.example"]; ok {
		t.Error("unknown domains cannot verify")
	}
}

func TestCategorizerPipeline(t *testing.T) {
	v := Validate(testSvc, 10)
	verified := VerifyDomains(testSvc, []string{"google.com", "facebook.com"}, taxonomy.SearchEngines)
	for d, c := range VerifyDomains(testSvc, []string{"facebook.com", "vk.com"}, taxonomy.SocialNetworks) {
		verified[d] = c
	}
	client, labels := testLabels(t)
	cat := NewCategorizer(client, labels, v, verified)

	if got := cat.Category("google.com"); got != taxonomy.SearchEngines {
		t.Errorf("google.com = %q, want verified Search Engines", got)
	}
	if got := cat.Category("facebook.com"); got != taxonomy.SocialNetworks {
		t.Errorf("facebook.com = %q, want verified Social Networks", got)
	}
	// An unverified search engine must NOT be labelled Search Engines:
	// the API's own flagship labels are distrusted.
	if got := cat.Category("naver.com"); got == taxonomy.SearchEngines {
		t.Error("unverified search engine should not be labelled as one")
	}
	// Regular categories flow through from the API.
	if got := cat.Category("netflix.com"); got != taxonomy.MoviesHomeVideo && got != taxonomy.Unknown {
		// The API may mislabel any single site; accept its label or
		// Unknown, but never a flagship category.
		if taxonomy.ManuallyVerified(got) {
			t.Errorf("netflix.com labelled flagship %q", got)
		}
	}
}

func TestCategorizerNilVerified(t *testing.T) {
	client, labels := testLabels(t)
	cat := NewCategorizer(client, labels, nil, nil)
	if got := cat.Category("unknown.example"); got != taxonomy.Unknown {
		t.Errorf("unknown domain = %q, want Unknown", got)
	}
}

// TestCategorizerTableMatchesFreshLookups: a domain read from the
// table gets the category it gets when resolved afresh, as a domain
// outside the labels is.
func TestCategorizerTableMatchesFreshLookups(t *testing.T) {
	v := Validate(testSvc, 10)
	verified := VerifyDomains(testSvc, []string{"google.com", "naver.com"}, taxonomy.SearchEngines)
	client, labels := testLabels(t)
	table := NewCategorizer(client, labels, v, verified)
	fresh := NewCategorizer(client, nil, v, verified)
	for _, d := range testWorld.Domains() {
		if a, b := table.Category(d), fresh.Category(d); a != b {
			t.Fatalf("%s: table %q, fresh lookup %q", d, a, b)
		}
	}
}

func TestCategorizerMostSitesKeepTrueCategory(t *testing.T) {
	// End to end, the categorizer should agree with ground truth for
	// the bulk of non-flagship sites.
	v := Validate(testSvc, 10)
	client, labels := testLabels(t)
	cat := NewCategorizer(client, labels, v, nil)
	agree, total := 0, 0
	for _, s := range testWorld.Sites() {
		if taxonomy.ManuallyVerified(s.Category) || v.IsDropped(s.Category) {
			continue
		}
		total++
		if cat.Category(s.Domain()) == s.Category {
			agree++
		}
	}
	frac := float64(agree) / float64(total)
	if frac < 0.85 {
		t.Errorf("categorizer agreement = %.3f, want >= 0.85", frac)
	}
}
