package psl

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestParseErrors(t *testing.T) {
	cases := []string{
		"!*.bad",
		"*.",
		"!",
		"foo.*.bar",
		"*.foo.*",
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) should fail", c)
		}
	}
}

func TestParseIgnoresCommentsAndBlanks(t *testing.T) {
	l, err := Parse("// comment\n\ncom\n  \n// more\nco.uk\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := l.PublicSuffix("example.co.uk"); got != "co.uk" {
		t.Errorf("PublicSuffix = %q, want co.uk", got)
	}
}

func TestPublicSuffixExact(t *testing.T) {
	cases := []struct{ domain, want string }{
		{"example.com", "com"},
		{"www.example.com", "com"},
		{"example.co.uk", "co.uk"},
		{"a.b.example.co.uk", "co.uk"},
		{"google.com.br", "com.br"},
		{"com", "com"},
	}
	for _, c := range cases {
		if got := Default.PublicSuffix(c.domain); got != c.want {
			t.Errorf("PublicSuffix(%q) = %q, want %q", c.domain, got, c.want)
		}
	}
}

func TestPublicSuffixImplicitRule(t *testing.T) {
	// Unknown TLD: last label is the suffix (implicit "*").
	if got := Default.PublicSuffix("example.zz"); got != "zz" {
		t.Errorf("PublicSuffix = %q, want zz", got)
	}
}

func TestPublicSuffixWildcardAndException(t *testing.T) {
	// "*.ck" wildcard with "!www.ck" exception.
	if got := Default.PublicSuffix("foo.bar.ck"); got != "bar.ck" {
		t.Errorf("wildcard: PublicSuffix = %q, want bar.ck", got)
	}
	if got := Default.PublicSuffix("www.ck"); got != "ck" {
		t.Errorf("exception: PublicSuffix = %q, want ck", got)
	}
	if got := Default.PublicSuffix("sub.www.ck"); got != "ck" {
		t.Errorf("exception subdomain: PublicSuffix = %q, want ck", got)
	}
}

func TestPublicSuffixNormalization(t *testing.T) {
	if got := Default.PublicSuffix("Example.COM."); got != "com" {
		t.Errorf("PublicSuffix = %q, want com", got)
	}
	if got := Default.PublicSuffix(""); got != "" {
		t.Errorf("PublicSuffix empty = %q, want empty", got)
	}
}

func TestETLDPlusOne(t *testing.T) {
	cases := []struct{ domain, want string }{
		{"www.example.com", "example.com"},
		{"example.com", "example.com"},
		{"a.b.google.co.uk", "google.co.uk"},
		{"mercadolibre.com.ar", "mercadolibre.com.ar"},
		{"www.ck", "www.ck"}, // exception: www.ck is registrable
		{"foo.www.ck", "www.ck"},
	}
	for _, c := range cases {
		got, err := Default.ETLDPlusOne(c.domain)
		if err != nil {
			t.Errorf("ETLDPlusOne(%q) error: %v", c.domain, err)
			continue
		}
		if got != c.want {
			t.Errorf("ETLDPlusOne(%q) = %q, want %q", c.domain, got, c.want)
		}
	}
}

func TestETLDPlusOneErrors(t *testing.T) {
	for _, d := range []string{"com", "co.uk", ""} {
		if _, err := Default.ETLDPlusOne(d); err == nil {
			t.Errorf("ETLDPlusOne(%q) should fail", d)
		}
	}
}

func TestSiteKeyMergesCCTLDs(t *testing.T) {
	variants := []string{
		"google.com", "google.co.uk", "google.com.br", "google.de",
		"www.google.co.in", "google.fr", "google.com.mx",
	}
	for _, v := range variants {
		if got := Default.SiteKey(v); got != "google" {
			t.Errorf("SiteKey(%q) = %q, want google", v, got)
		}
	}
}

func TestSiteKeyDistinctSitesStayDistinct(t *testing.T) {
	// The paper notes top.com vs top.gg are genuinely different sites;
	// key collision is accepted, but different first labels never merge.
	if Default.SiteKey("naver.com") == Default.SiteKey("daum.net") {
		t.Error("naver and daum should not merge")
	}
}

func TestSiteKeyFallback(t *testing.T) {
	// A bare public suffix falls back to the normalized input.
	if got := Default.SiteKey("com"); got != "com" {
		t.Errorf("SiteKey(com) = %q, want com", got)
	}
}

func TestSiteKeyNeverEmptyProperty(t *testing.T) {
	labels := []string{"a", "bb", "ccc", "com", "co", "uk", "br", "google", "ck", "www"}
	f := func(i1, i2, i3 uint8, depth uint8) bool {
		parts := []string{
			labels[int(i1)%len(labels)],
			labels[int(i2)%len(labels)],
			labels[int(i3)%len(labels)],
		}
		d := 1 + int(depth)%3
		domain := strings.Join(parts[:d], ".")
		return Default.SiteKey(domain) != ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestETLDPlusOneIdempotentProperty(t *testing.T) {
	domains := []string{
		"www.example.com", "a.b.c.google.co.uk", "shop.amazon.com.au",
		"news.bbc.co.uk", "x.y.naver.com", "foo.bar.ck",
	}
	for _, d := range domains {
		e1, err := Default.ETLDPlusOne(d)
		if err != nil {
			t.Fatalf("ETLDPlusOne(%q): %v", d, err)
		}
		e2, err := Default.ETLDPlusOne(e1)
		if err != nil {
			t.Fatalf("ETLDPlusOne(%q): %v", e1, err)
		}
		if e1 != e2 {
			t.Errorf("not idempotent: %q -> %q -> %q", d, e1, e2)
		}
	}
}

func TestDefaultCoversStudyCountryTLDs(t *testing.T) {
	// Every second-level registry suffix used by the world model must
	// resolve so cross-country merging works.
	for _, d := range []string{
		"shopee.vn", "shopee.tw", "shopee.co.id", "shopee.co.th",
		"amazon.co.jp", "amazon.com.au", "coupang.co.kr",
		"allegro.pl", "bol.com", "2dehands.be", "yapo.cl",
		"ouedkniss.dz", "jumia.com.ng", "mercadolibre.com.uy",
	} {
		if _, err := Default.ETLDPlusOne(d); err != nil {
			t.Errorf("ETLDPlusOne(%q) failed: %v", d, err)
		}
	}
}

// refPublicSuffix, refETLDPlusOne and refSiteKey are the label-split
// formulation of the PSL algorithm: split the domain into labels and
// join each candidate suffix back into a string. The package walks the
// same suffixes as substrings instead; these are the statement it is
// held to.
func refPublicSuffix(l *List, domain string) string {
	domain = normalize(domain)
	if domain == "" {
		return ""
	}
	labels := strings.Split(domain, ".")
	best := labels[len(labels)-1]
	bestLen := 1
	for i := 0; i < len(labels); i++ {
		suffix := strings.Join(labels[i:], ".")
		n := len(labels) - i
		if l.rules[suffix]&ruleException != 0 && n >= 2 {
			return strings.Join(labels[i+1:], ".")
		}
		if l.rules[suffix]&ruleExact != 0 && n > bestLen {
			best, bestLen = suffix, n
		}
		if i > 0 {
			if l.rules[suffix]&ruleWildcard != 0 && n+1 > bestLen {
				best, bestLen = strings.Join(labels[i-1:], "."), n+1
			}
		}
	}
	return best
}

func refETLDPlusOne(l *List, domain string) (string, bool) {
	domain = normalize(domain)
	suffix := refPublicSuffix(l, domain)
	if domain == suffix || suffix == "" {
		return "", false
	}
	labels := strings.Split(strings.TrimSuffix(domain, "."+suffix), ".")
	return labels[len(labels)-1] + "." + suffix, true
}

func refSiteKey(l *List, domain string) string {
	e1, ok := refETLDPlusOne(l, domain)
	if !ok {
		return normalize(domain)
	}
	return e1[:strings.IndexByte(e1, '.')]
}

func TestSiteKeyMatchesReference(t *testing.T) {
	lists := []*List{Default, MustParse("com\nco.uk\nck\n*.ck\n!www.ck\nb.ck")}
	fixed := []string{
		"a.com", "b.co.uk", "x.y.ck", "www.ck", "a.www.ck", "b.ck", "a.b.ck",
		"", ".", "com", ".com", "a..com", "..", "weird", "WWW.Google.CO.UK.",
		" naver.com ", "ck", "z.ck", "shop.amazon.com.au", "a.b.c.d.e.com.br",
	}
	labels := []string{"a", "bb", "", "com", "co", "uk", "br", "google", "ck", "www", "b", "GOV"}
	check := func(d string) bool {
		for _, l := range lists {
			if got, want := l.SiteKey(d), refSiteKey(l, d); got != want {
				t.Errorf("SiteKey(%q) = %q, reference %q", d, got, want)
				return false
			}
			if got, want := l.PublicSuffix(d), refPublicSuffix(l, d); got != want {
				t.Errorf("PublicSuffix(%q) = %q, reference %q", d, got, want)
				return false
			}
			got, err := l.ETLDPlusOne(d)
			want, ok := refETLDPlusOne(l, d)
			if (err == nil) != ok || got != want {
				t.Errorf("ETLDPlusOne(%q) = %q, %v; reference %q, %v", d, got, err, want, ok)
				return false
			}
		}
		return true
	}
	for _, d := range fixed {
		check(d)
	}
	f := func(picks [5]uint8, depth uint8) bool {
		parts := make([]string, 1+int(depth)%len(picks))
		for i := range parts {
			parts[i] = labels[int(picks[i])%len(labels)]
		}
		return check(strings.Join(parts, "."))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSiteKeyAllocationFree(t *testing.T) {
	for _, d := range []string{"www.google.co.uk", "naver.com", "x.y.ck", "com"} {
		if n := testing.AllocsPerRun(100, func() { _ = Default.SiteKey(d) }); n != 0 {
			t.Errorf("SiteKey(%q) allocates %.0f times per call, want 0", d, n)
		}
	}
}

func TestSiteKeyConcurrent(t *testing.T) {
	// Share one List across many goroutines over an overlapping domain
	// set; run under -race this verifies lookups are data-race free,
	// and every goroutine must observe identical results.
	l := MustParse("com\nco.uk\ngov.uk\nbr\ncom.br")
	domains := make([]string, 200)
	for i := range domains {
		switch i % 4 {
		case 0:
			domains[i] = "site" + strconv.Itoa(i/4) + ".com"
		case 1:
			domains[i] = "site" + strconv.Itoa(i/4) + ".co.uk"
		case 2:
			domains[i] = "site" + strconv.Itoa(i/4) + ".com.br"
		default:
			domains[i] = "nested.site" + strconv.Itoa(i/4) + ".gov.uk"
		}
	}
	want := make([]string, len(domains))
	for i, d := range domains {
		want[i] = refSiteKey(l, d)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i := range domains {
					// Stagger start points so goroutines collide on
					// different keys at different times.
					j := (i + g*13) % len(domains)
					if got := l.SiteKey(domains[j]); got != want[j] {
						select {
						case errs <- "SiteKey(" + domains[j] + ") = " + got + ", want " + want[j]:
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
