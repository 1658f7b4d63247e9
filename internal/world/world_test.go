package world

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"wwb/internal/psl"
	"wwb/internal/taxonomy"
)

// smallWorld is shared across tests; generation is deterministic so
// sharing is safe (tests only read).
var smallWorld = Generate(SmallConfig())

func TestCountriesRoster(t *testing.T) {
	cs := Countries()
	if len(cs) != 45 {
		t.Fatalf("countries = %d, want 45 (Appendix A)", len(cs))
	}
	byContinent := map[string]int{}
	for _, c := range cs {
		byContinent[c.Continent]++
	}
	want := map[string]int{Africa: 7, Asia: 10, Europe: 10, NorthAmerica: 7, Oceania: 2, SouthAmerica: 9}
	for k, v := range want {
		if byContinent[k] != v {
			t.Errorf("%s has %d countries, want %d", k, byContinent[k], v)
		}
	}
}

func TestCountriesSortedAndUnique(t *testing.T) {
	cs := Countries()
	seen := map[string]bool{}
	for i, c := range cs {
		if i > 0 && cs[i-1].Code >= c.Code {
			t.Fatal("countries not sorted by code")
		}
		if seen[c.Code] {
			t.Fatalf("duplicate country %s", c.Code)
		}
		seen[c.Code] = true
		if len(c.Languages) == 0 || c.WebPopulation <= 0 || c.Suffix == "" {
			t.Errorf("%s: incomplete country record", c.Code)
		}
		if c.MobileShare <= 0 || c.MobileShare >= 1 {
			t.Errorf("%s: mobile share %v out of (0,1)", c.Code, c.MobileShare)
		}
	}
}

func TestCountryByCode(t *testing.T) {
	c, ok := CountryByCode("KR")
	if !ok || c.Name != "South Korea" || !c.CensorsAdult {
		t.Errorf("KR lookup wrong: %+v ok=%v", c, ok)
	}
	if _, ok := CountryByCode("XX"); ok {
		t.Error("unknown code should not resolve")
	}
}

func TestCensoringCountriesMatchPaper(t *testing.T) {
	// Section 5.3.2: South Korea, Turkey, Vietnam and Russia censor.
	want := map[string]bool{"KR": true, "TR": true, "VN": true, "RU": true}
	for _, c := range Countries() {
		if c.CensorsAdult != want[c.Code] {
			t.Errorf("%s: CensorsAdult = %v, want %v", c.Code, c.CensorsAdult, want[c.Code])
		}
	}
}

func TestSharesLanguage(t *testing.T) {
	mx, _ := CountryByCode("MX")
	ar, _ := CountryByCode("AR")
	jp, _ := CountryByCode("JP")
	if !mx.SharesLanguage(ar) {
		t.Error("MX and AR share Spanish")
	}
	if mx.SharesLanguage(jp) {
		t.Error("MX and JP share no language")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := Generate(SmallConfig())
	b := Generate(SmallConfig())
	if len(a.Sites()) != len(b.Sites()) {
		t.Fatal("site counts differ across identical generations")
	}
	for i := range a.Sites() {
		sa, sb := a.Sites()[i], b.Sites()[i]
		if sa.Key != sb.Key || sa.BaseWeight != sb.BaseWeight || sa.DwellMean != sb.DwellMean {
			t.Fatalf("site %d differs: %+v vs %+v", i, sa, sb)
		}
	}
	us, _ := CountryByCode("US")
	for i, sw := range a.Weights("US", Windows, Feb2022) {
		other := b.Weights("US", Windows, Feb2022)[i]
		if sw.Loads != other.Loads || sw.Time != other.Time {
			t.Fatalf("weights differ for %s in %s", sw.Site.Key, us.Code)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	a := Generate(SmallConfig())
	b := Generate(SmallConfig().WithSeed(123))
	diff := 0
	for i := range a.Sites() {
		if i >= len(b.Sites()) {
			break
		}
		if a.Sites()[i].BaseWeight != b.Sites()[i].BaseWeight {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds should produce different universes")
	}
}

func TestSiteKeysUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range smallWorld.Sites() {
		if seen[s.Key] {
			t.Fatalf("duplicate key %q", s.Key)
		}
		seen[s.Key] = true
	}
}

func TestSiteInvariants(t *testing.T) {
	for _, s := range smallWorld.Sites() {
		if s.BaseWeight <= 0 {
			t.Errorf("%s: non-positive base weight", s.Key)
		}
		if s.DwellMean <= 0 {
			t.Errorf("%s: non-positive dwell", s.Key)
		}
		if !taxonomy.Valid(s.Category) {
			t.Errorf("%s: invalid category %q", s.Key, s.Category)
		}
		if s.Global == (s.Home != "") {
			t.Errorf("%s: exactly one of Global / Home must be set", s.Key)
		}
		if s.AppFactor <= 0 || s.MobileBoost <= 0 {
			t.Errorf("%s: non-positive platform factors", s.Key)
		}
		if s.TLD == "" {
			t.Errorf("%s: missing TLD", s.Key)
		}
	}
}

func TestDomainsResolveThroughPSL(t *testing.T) {
	// Every domain the world can mint must survive eTLD+1 merging and
	// map back to the site key.
	for _, s := range smallWorld.Sites() {
		domains := []string{s.Domain()}
		if s.MultiTLD {
			for _, c := range Countries() {
				domains = append(domains, s.DomainIn(c))
			}
		}
		for _, d := range domains {
			key := psl.Default.SiteKey(d)
			if key != s.Key {
				t.Fatalf("site %q domain %q merges to %q", s.Key, d, key)
			}
		}
	}
}

func TestMultiTLDLocalisation(t *testing.T) {
	g, ok := smallWorld.SiteByKey("google")
	if !ok {
		t.Fatal("google missing")
	}
	br, _ := CountryByCode("BR")
	gb, _ := CountryByCode("GB")
	if g.DomainIn(br) != "google.com.br" || g.DomainIn(gb) != "google.co.uk" {
		t.Errorf("localisation wrong: %s, %s", g.DomainIn(br), g.DomainIn(gb))
	}
}

func TestAffinityProperties(t *testing.T) {
	w := smallWorld
	kr, _ := CountryByCode("KR")
	us, _ := CountryByCode("US")
	// Home affinity is exactly 1.
	naver, _ := w.SiteByKey("naver")
	if got := w.Affinity(naver, kr); got != 1 {
		t.Errorf("home affinity = %v, want 1", got)
	}
	// NoSpill sites have zero affinity abroad.
	gosuslugi, _ := w.SiteByKey("gosuslugi")
	if got := w.Affinity(gosuslugi, us); got != 0 {
		t.Errorf("NoSpill abroad = %v, want 0", got)
	}
	// Censorship suppresses foreign porn anchors.
	ph, _ := w.SiteByKey("pornhub")
	if w.Affinity(ph, kr) >= 0.1*w.Affinity(ph, us) {
		t.Error("censored country should suppress global porn site")
	}
	// Domestic porn is not suppressed by the home country's policy
	// (the paper: Vietnam censors yet sex333 is top-10 there).
	vn, _ := CountryByCode("VN")
	sex333, _ := w.SiteByKey("sex333")
	if got := w.Affinity(sex333, vn); got != 1 {
		t.Errorf("domestic porn affinity = %v, want 1", got)
	}
}

func TestAffinityLanguageSpill(t *testing.T) {
	w := smallWorld
	mx, _ := CountryByCode("MX")
	jp, _ := CountryByCode("JP")
	// An Argentine news giant spills to Mexico (shared language) far
	// more than to Japan.
	clarin, _ := w.SiteByKey("clarin")
	if w.Affinity(clarin, mx) < 5*w.Affinity(clarin, jp) {
		t.Error("language spill should dominate global floor")
	}
}

func TestWeightsPositiveAndTimeConsistent(t *testing.T) {
	w := smallWorld
	for _, code := range []string{"US", "KR", "BR"} {
		for _, p := range Platforms {
			ws := w.Weights(code, p, Feb2022)
			if len(ws) < 500 {
				t.Fatalf("%s/%s: only %d candidates", code, p, len(ws))
			}
			for _, sw := range ws {
				if sw.Loads <= 0 || sw.Time <= 0 {
					t.Fatalf("%s: non-positive weight", sw.Site.Key)
				}
				// Time = loads × dwell × drift; dwell drift is small,
				// so the ratio stays near the site's dwell.
				ratio := sw.Time / sw.Loads / sw.Site.DwellMean
				if ratio < 0.5 || ratio > 2 {
					t.Fatalf("%s: time/loads ratio %v far from dwell", sw.Site.Key, ratio)
				}
			}
		}
	}
}

func TestDecemberSeasonality(t *testing.T) {
	w := smallWorld
	var shop, edu *Site
	for _, s := range w.Sites() {
		if s.Home == "US" && s.Category == taxonomy.Ecommerce && shop == nil {
			shop = s
		}
		if s.Home == "US" && s.Category == taxonomy.EducationalInstitutions && edu == nil {
			edu = s
		}
	}
	if shop == nil || edu == nil {
		t.Fatal("missing US national sites for seasonality check")
	}
	cand := Candidate{Site: shop, Affinity: 1}
	nov := w.Weight(cand, Windows, Nov2021).Loads / shop.drift[Nov2021]
	dec := w.Weight(cand, Windows, Dec2021).Loads / shop.drift[Dec2021]
	if dec <= nov {
		t.Error("e-commerce should rise in December")
	}
	cand = Candidate{Site: edu, Affinity: 1}
	nov = w.Weight(cand, Windows, Nov2021).Loads / edu.drift[Nov2021]
	dec = w.Weight(cand, Windows, Dec2021).Loads / edu.drift[Dec2021]
	if dec >= nov {
		t.Error("education should fall in December")
	}
}

func TestPlatformFactorEffects(t *testing.T) {
	w := smallWorld
	// YouTube's native app shrinks its Android web share.
	yt, _ := w.SiteByKey("youtube")
	cand := Candidate{Site: yt, Affinity: 1}
	win := w.Weight(cand, Windows, Feb2022).Loads
	and := w.Weight(cand, Android, Feb2022).Loads
	if and >= win*0.5 {
		t.Errorf("YouTube Android web weight should be far below Windows: %v vs %v", and, win)
	}
	// AMP is overwhelmingly mobile.
	amp, _ := w.SiteByKey("ampproject")
	cand = Candidate{Site: amp, Affinity: 1}
	if w.Weight(cand, Android, Feb2022).Loads <= w.Weight(cand, Windows, Feb2022).Loads*5 {
		t.Error("AMP should be overwhelmingly mobile")
	}
}

func TestGeneratedTailShape(t *testing.T) {
	// Within a (country, category), generated weights decay roughly by
	// rank: the first site should outweigh the tenth by a clear margin
	// in aggregate.
	var first, tenth float64
	count := 0
	for _, c := range Countries() {
		var sites []*Site
		for _, s := range smallWorld.Sites() {
			if s.Home == c.Code && s.Category == taxonomy.NewsMedia && !strings.Contains(s.Key, ".") {
				sites = append(sites, s)
			}
		}
		if len(sites) >= 10 {
			first += sites[0].BaseWeight
			tenth += sites[9].BaseWeight
			count++
		}
	}
	if count < 30 {
		t.Fatalf("only %d countries with 10+ news sites", count)
	}
	if first < 3*tenth {
		t.Errorf("news Zipf head too flat: first=%v tenth=%v", first, tenth)
	}
}

func TestMonthStringAndHelpers(t *testing.T) {
	if Sep2021.String() != "2021-09" || Feb2022.String() != "2022-02" {
		t.Error("month names wrong")
	}
	if !Dec2021.IsDecember() || Jan2022.IsDecember() {
		t.Error("IsDecember wrong")
	}
	if Windows.String() != "Windows" || Android.String() != "Android" {
		t.Error("platform names wrong")
	}
	if PageLoads.String() != "Page Loads" || TimeOnPage.String() != "Time on Page" {
		t.Error("metric names wrong")
	}
	if Month(99).String() == "" || Platform(9).String() == "" || Metric(9).String() == "" {
		t.Error("out-of-range stringers should not be empty")
	}
}

func TestMonthByNameAndRange(t *testing.T) {
	for _, m := range ExtendedMonths {
		if got, ok := MonthByName(m.String()); !ok || got != m {
			t.Errorf("MonthByName(%q) = %v, %v", m.String(), got, ok)
		}
	}
	for _, bad := range []string{"", "2020-01", "2022-13", "march"} {
		if _, ok := MonthByName(bad); ok {
			t.Errorf("MonthByName(%q) resolved", bad)
		}
	}

	span, err := MonthRange("2021-09..2022-03")
	if err != nil {
		t.Fatal(err)
	}
	want := []Month{Sep2021, Oct2021, Nov2021, Dec2021, Jan2022, Feb2022, Mar2022}
	if len(span) != len(want) {
		t.Fatalf("span %v, want %v", span, want)
	}
	for i := range want {
		if span[i] != want[i] {
			t.Fatalf("span %v, want %v", span, want)
		}
	}
	if one, err := MonthRange("2022-03..2022-03"); err != nil || len(one) != 1 || one[0] != Mar2022 {
		t.Errorf("single-month range: %v, %v", one, err)
	}
	for _, bad := range []string{"2022-03", "2022-03..2022-01", "2020-01..2022-01", "2021-09..never"} {
		if _, err := MonthRange(bad); err == nil {
			t.Errorf("MonthRange(%q) accepted", bad)
		}
	}
}

// TestGenerateCtxCancels: a dead context yields no world, and a
// deadline that lands mid-generation at default scale returns promptly
// instead of finishing the candidate stage.
func TestGenerateCtxCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if w, err := GenerateCtx(ctx, SmallConfig()); w != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled GenerateCtx = %v, %v; want nil, context.Canceled", w, err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	w, err := GenerateCtx(ctx, DefaultConfig())
	if w != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out GenerateCtx = %v, %v; want nil, deadline exceeded", w, err)
	}
	// One country's candidate pass is the longest unchecked stretch.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timed-out GenerateCtx took %s to give up", elapsed)
	}
}

func TestGenerateCtxMatchesGenerate(t *testing.T) {
	w, err := GenerateCtx(context.Background(), SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Sites()) != len(smallWorld.Sites()) {
		t.Fatalf("%d sites, want %d", len(w.Sites()), len(smallWorld.Sites()))
	}
	for i, s := range w.Sites() {
		if ref := smallWorld.Sites()[i]; s.Key != ref.Key || s.BaseWeight != ref.BaseWeight || s.drift != ref.drift {
			t.Fatalf("site %d: %s differs from Generate's %s", i, s.Key, ref.Key)
		}
	}
	for _, c := range w.Countries() {
		got, want := w.Candidates(c.Code), smallWorld.Candidates(c.Code)
		if len(got) != len(want) {
			t.Fatalf("%s: %d candidates, want %d", c.Code, len(got), len(want))
		}
		for i := range got {
			if got[i].Site.Key != want[i].Site.Key || got[i].Affinity != want[i].Affinity {
				t.Fatalf("%s candidate %d differs", c.Code, i)
			}
		}
	}
}

// TestCandidatesIndependentOfGOMAXPROCS: the candidate lists are built
// on the worker pool, and every country's list must come out the same
// whether one worker or four build them — same sites, bit-identical
// affinities, same domains — with each candidate's domain equal to
// its site's DomainIn.
func TestCandidatesIndependentOfGOMAXPROCS(t *testing.T) {
	gen := func(procs int) *World {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return Generate(SmallConfig())
	}
	one, four := gen(1), gen(4)
	for _, c := range one.Countries() {
		got, want := four.Candidates(c.Code), one.Candidates(c.Code)
		if len(got) != len(want) {
			t.Fatalf("%s: %d candidates at GOMAXPROCS 4, %d at 1", c.Code, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Site.Key != w.Site.Key || math.Float64bits(g.Affinity) != math.Float64bits(w.Affinity) || g.Domain != w.Domain {
				t.Fatalf("%s candidate %d: %s/%v/%s at GOMAXPROCS 4, %s/%v/%s at 1",
					c.Code, i, g.Site.Key, g.Affinity, g.Domain, w.Site.Key, w.Affinity, w.Domain)
			}
			if d := w.Site.DomainIn(c); w.Domain != d {
				t.Fatalf("%s candidate %d: Domain %q, DomainIn %q", c.Code, i, w.Domain, d)
			}
		}
	}
}
