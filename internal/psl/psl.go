// Package psl implements public-suffix-list semantics compatible with
// the Mozilla Public Suffix List algorithm: exact rules, wildcard rules
// ("*.ck") and exception rules ("!www.ck"). The study uses it to merge
// a site's ccTLD variants (google.co.uk, google.com.br, ...) into a
// single cross-country site key, as described in Section 3.1 of the
// paper ("Aggregating Sites Across Domains").
//
// Lookups hold no state: a List is immutable after Parse, and SiteKey
// keeps no cache, so client-supplied domains (the query server's
// /v1/site) cannot grow the process. Every candidate suffix is a
// substring of the domain, so SiteKey allocates nothing; callers that
// resolve the same domain many times (the dataset's interned key
// index) parse each distinct domain once themselves.
package psl

import (
	"fmt"
	"strings"
)

// List is a compiled set of public-suffix rules.
type List struct {
	// rules maps each suffix a rule names to the kinds of rule naming
	// it, so one lookup per candidate suffix tests all three kinds.
	rules map[string]ruleKind
}

// ruleKind is a bit set of the rule kinds naming one suffix.
type ruleKind uint8

const (
	ruleExact     ruleKind = 1 << iota // "com", "co.uk"
	ruleWildcard                       // base of "*.<base>", e.g. "ck"
	ruleException                      // full exception domain of "!<domain>", e.g. "www.ck"
)

// Parse compiles a rule set from the PSL text format: one rule per
// line, "//" comments and blank lines ignored. Rules are stored
// lower-cased.
func Parse(rules string) (*List, error) {
	l := &List{rules: make(map[string]ruleKind)}
	for lineNo, raw := range strings.Split(rules, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		line = strings.ToLower(line)
		switch {
		case strings.HasPrefix(line, "!"):
			dom := strings.TrimPrefix(line, "!")
			if dom == "" || strings.Contains(dom, "*") {
				return nil, fmt.Errorf("psl: invalid exception rule %q on line %d", raw, lineNo+1)
			}
			l.rules[dom] |= ruleException
		case strings.HasPrefix(line, "*."):
			base := strings.TrimPrefix(line, "*.")
			if base == "" || strings.Contains(base, "*") {
				return nil, fmt.Errorf("psl: invalid wildcard rule %q on line %d", raw, lineNo+1)
			}
			l.rules[base] |= ruleWildcard
		default:
			if strings.Contains(line, "*") {
				return nil, fmt.Errorf("psl: invalid rule %q on line %d", raw, lineNo+1)
			}
			l.rules[line] |= ruleExact
		}
	}
	return l, nil
}

// MustParse is Parse but panics on error; intended for embedded rule
// constants validated by tests.
func MustParse(rules string) *List {
	l, err := Parse(rules)
	if err != nil {
		panic(err)
	}
	return l
}

// normalize lower-cases and strips a single trailing dot.
func normalize(domain string) string {
	domain = strings.ToLower(strings.TrimSpace(domain))
	domain = strings.TrimSuffix(domain, ".")
	return domain
}

// PublicSuffix returns the public suffix of domain according to the
// list. Per the PSL algorithm, a domain whose labels match no rule has
// its last label as public suffix (the implicit "*" rule). The empty
// string yields the empty string.
func (l *List) PublicSuffix(domain string) string {
	return l.publicSuffix(normalize(domain))
}

// publicSuffix is PublicSuffix over a normalized domain. It walks the
// domain's label-aligned suffixes longest first; each is a substring
// of domain, so the walk allocates nothing.
func (l *List) publicSuffix(domain string) string {
	if domain == "" {
		return ""
	}
	// Longest rule wins: exceptions beat wildcards beat exact rules of
	// shorter length.
	best := domain[strings.LastIndexByte(domain, '.')+1:] // implicit "*" rule
	bestLen := 1
	labels := strings.Count(domain, ".") + 1
	prev, start := 0, 0 // starts of the previous and the current label
	for i := 0; i < labels; i++ {
		suffix := domain[start:]
		n := labels - i
		next := start + strings.IndexByte(suffix, '.') + 1 // start of label i+1
		kind := l.rules[suffix]
		if kind&ruleException != 0 && n >= 2 {
			// Exception rules prevail over every other match: the
			// public suffix is the exception with its leftmost label
			// removed.
			return domain[next:]
		}
		if kind&ruleExact != 0 && n > bestLen {
			best, bestLen = suffix, n
		}
		// Wildcard "*.base": matches <label>.base, so the public
		// suffix has n = len(base labels)+1 labels.
		if kind&ruleWildcard != 0 && i > 0 && n+1 > bestLen {
			best, bestLen = domain[prev:], n+1
		}
		prev, start = start, next
	}
	return best
}

// registrable splits a normalized domain into the label left of its
// public suffix and the suffix itself. ok is false when the domain is
// empty or is itself a public suffix.
//
// The suffix is taken of the domain normalized once more, as
// ETLDPlusOne always has: the two differ only for inputs such as
// "com..", whose keys must not change.
func (l *List) registrable(domain string) (label, suffix string, ok bool) {
	suffix = l.publicSuffix(normalize(domain))
	if domain == suffix || suffix == "" {
		return "", "", false
	}
	rest := domain
	if n := len(domain) - len(suffix) - 1; n >= 0 && domain[n] == '.' && domain[n+1:] == suffix {
		rest = domain[:n]
	}
	return rest[strings.LastIndexByte(rest, '.')+1:], suffix, true
}

// ETLDPlusOne returns the registrable domain (public suffix plus one
// label). It returns an error when the domain is itself a public
// suffix or empty.
func (l *List) ETLDPlusOne(domain string) (string, error) {
	domain = normalize(domain)
	label, suffix, ok := l.registrable(domain)
	if !ok {
		return "", fmt.Errorf("psl: %q is a public suffix or empty", domain)
	}
	return label + "." + suffix, nil
}

// SiteKey returns the cross-country merge key for a domain: the first
// label of its registrable domain. The paper merges sites across
// ccTLDs this way (google.co.uk and google.com both key to "google").
// For a bare public suffix the domain itself is returned so unknown
// inputs still group deterministically.
//
// The key is a substring of the (normalized) input, so for a
// lower-case domain SiteKey allocates nothing. It is safe for
// concurrent use.
func (l *List) SiteKey(domain string) string {
	domain = normalize(domain)
	if label, _, ok := l.registrable(domain); ok {
		return label
	}
	return domain
}

// Default is the embedded rule set. It covers the generic TLDs and
// every ccTLD (including second-level registry suffixes) used by the
// synthetic world model's 45 countries; it is intentionally a subset
// of the full Mozilla list.
var Default = MustParse(defaultRules)

const defaultRules = `
// Generic TLDs.
com
org
net
edu
gov
mil
int
info
biz
tv
io
gg
me
fm
live
wiki
cx
// Africa.
dz
com.dz
gov.dz
edu.dz
eg
com.eg
edu.eg
gov.eg
ke
co.ke
go.ke
ac.ke
ma
co.ma
gov.ma
ac.ma
ng
com.ng
gov.ng
edu.ng
tn
com.tn
gov.tn
za
co.za
gov.za
ac.za
// Asia.
jp
co.jp
ne.jp
or.jp
ac.jp
go.jp
in
co.in
gov.in
ac.in
net.in
kr
co.kr
go.kr
ac.kr
or.kr
tr
com.tr
gov.tr
edu.tr
vn
com.vn
gov.vn
edu.vn
tw
com.tw
gov.tw
edu.tw
id
co.id
go.id
ac.id
th
co.th
go.th
ac.th
in.th
ph
com.ph
gov.ph
edu.ph
hk
com.hk
gov.hk
edu.hk
// Europe.
uk
co.uk
gov.uk
ac.uk
org.uk
fr
gouv.fr
ru
com.ru
de
it
gov.it
edu.it
es
com.es
gob.es
nl
pl
com.pl
gov.pl
edu.pl
ua
com.ua
gov.ua
edu.ua
be
ac.be
// North America.
ca
gc.ca
cr
co.cr
go.cr
ac.cr
do
com.do
gob.do
edu.do
gt
com.gt
gob.gt
edu.gt
mx
com.mx
gob.mx
edu.mx
pa
com.pa
gob.pa
us
// Oceania.
au
com.au
gov.au
edu.au
org.au
net.au
nz
co.nz
govt.nz
ac.nz
// South America.
ar
com.ar
gob.ar
edu.ar
bo
com.bo
gob.bo
edu.bo
br
com.br
gov.br
edu.br
org.br
mus.br
cl
gob.cl
co
com.co
gov.co
edu.co
ec
com.ec
gob.ec
edu.ec
pe
com.pe
gob.pe
edu.pe
uy
com.uy
gub.uy
edu.uy
ve
com.ve
gob.ve
// Wildcard + exception examples retained from the PSL for algorithm
// coverage (Cook Islands).
ck
*.ck
!www.ck
`
