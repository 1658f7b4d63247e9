package world

import (
	"math"

	"wwb/internal/taxonomy"
)

// Site is one website in the synthetic universe, identified by its
// cross-country merged key (Section 3.1 merges ccTLD variants of the
// same site, e.g. google.co.uk with google.com).
type Site struct {
	// Key is the merged site key ("google", "naver", "brportal3").
	Key string
	// Category is the site's true category; the categorisation API in
	// internal/catapi observes it with noise.
	Category taxonomy.Category
	// Global marks globally popular anchor sites. National sites have
	// Home set to their country code instead.
	Global bool
	// Home is the home country code for national sites ("" if Global).
	Home string
	// Lang is the site's primary content language; cross-border spill
	// is strongest into countries sharing it. Empty means neutral.
	Lang string
	// BaseWeight is the page-load propensity baseline in the site's
	// strongest market, in arbitrary units.
	BaseWeight float64
	// DwellMean is the mean foreground seconds per completed load for
	// this site (category dwell modulated by per-site noise).
	DwellMean float64
	// AppFactor scales Android *web* traffic: sites with popular
	// native apps lose mobile web traffic to them (YouTube, Netflix).
	// 1 means no native-app siphon.
	AppFactor float64
	// MobileBoost is an extra Android multiplier beyond the category
	// lean (the AMP Project effect). 1 means none.
	MobileBoost float64
	// MultiTLD sites operate a distinct ccTLD domain per country
	// (google.co.uk, amazon.com.br); others use a single domain.
	MultiTLD bool
	// TLD is the suffix of the site's canonical domain ("com" unless
	// the site is national, in which case the home registry suffix).
	TLD string
	// NoSpill marks national sites that never cross borders
	// (government portals, banks, universities).
	NoSpill bool
	// overrides maps country code -> affinity multiplier, for
	// hand-tuned market differences on anchor sites.
	overrides map[string]float64

	// domain is the canonical domain, made once when the site joins
	// the world (World.local holds a MultiTLD site's others).
	domain string

	// drift holds the per-month popularity random-walk factors,
	// precomputed at generation time over the full simulated year.
	drift [NumMonths]float64
	// dwellDrift holds small per-month dwell variation so time-on-page
	// ranks drift slightly independently from page-load ranks.
	dwellDrift [NumMonths]float64
}

// DomainIn returns the domain name under which the site appears in the
// given country's rank lists. MultiTLD sites localise their suffix;
// everything else uses the canonical domain.
func (s *Site) DomainIn(c Country) string {
	if s.MultiTLD {
		return s.Key + "." + c.Suffix
	}
	return s.domain
}

// Domain returns the site's canonical domain.
func (s *Site) Domain() string { return s.domain }

// spillGate scales a national site's spill abroad by its size. Big
// sites travel; tail sites stay home. Gating spill by the site's size
// keeps cross-border similarity concentrated at the head of the web
// (where the paper's RBO weighting looks) while the long tail stays
// endemic to one country (Section 5.1: half the sites in some top-1K
// appear in no other top-10K).
func (s *Site) spillGate() float64 {
	gate := math.Pow(s.BaseWeight/50, 0.7)
	if gate > 1 {
		gate = 1
	}
	return gate
}

// overrideFor returns the affinity override for a country (1 if none).
func (s *Site) overrideFor(code string) float64 {
	if s.overrides == nil {
		return 1
	}
	if v, ok := s.overrides[code]; ok {
		return v
	}
	return 1
}
