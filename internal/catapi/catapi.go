// Package catapi simulates the Cloudflare Domain Intelligence
// categorisation API the paper queries (Section 3.2), together with
// the paper's validation workflow: sample ten sites per category,
// manually verify them, drop categories under 80 % accuracy, and
// hand-verify the Search Engines and Social Networks sets because the
// API is unreliable for exactly the categories that matter most.
//
// The simulated API labels domains with per-category error rates; the
// "manual" checks consult the world model's ground truth, which plays
// the role of the human labeller.
package catapi

import (
	"sort"

	"wwb/internal/psl"
	"wwb/internal/taxonomy"
	"wwb/internal/world"
)

// ServiceConfig sets the API's per-category label accuracy.
type ServiceConfig struct {
	// DefaultAccuracy applies to categories without an override.
	DefaultAccuracy float64
	// Accuracy overrides the rate for specific categories. The paper
	// found Search Engines and Social Networks badly labelled; the
	// simulation degrades them the same way.
	Accuracy map[taxonomy.Category]float64
	// Seed makes labelling deterministic per domain.
	Seed uint64
}

// DefaultServiceConfig mirrors the accuracy landscape the paper
// reports in Figure 13: most categories are reliable, the two
// flagship categories are not, and one obscure category falls just
// under the bar.
func DefaultServiceConfig() ServiceConfig {
	return ServiceConfig{
		DefaultAccuracy: 0.95,
		Accuracy: map[taxonomy.Category]float64{
			taxonomy.SearchEngines:  0.35,
			taxonomy.SocialNetworks: 0.42,
			taxonomy.Paranormal:     0.55,
		},
		Seed: 2022,
	}
}

// confusable maps categories whose sites the API tends to mislabel as
// one of the flagship categories (multi-purpose portals look like
// search engines; community sites look like social networks).
var confusable = map[taxonomy.Category]taxonomy.Category{
	taxonomy.Webmail:             taxonomy.SearchEngines,
	taxonomy.Technology:          taxonomy.SearchEngines,
	taxonomy.Forums:              taxonomy.SocialNetworks,
	taxonomy.ChatMessaging:       taxonomy.SocialNetworks,
	taxonomy.DatingRelationships: taxonomy.SocialNetworks,
	taxonomy.Photography:         taxonomy.SocialNetworks,
}

// Service is the simulated categorisation API.
type Service struct {
	cfg   ServiceConfig
	world *world.World
	root  *world.RNG
	cats  []taxonomy.Category
}

// NewService builds a service over a world.
func NewService(w *world.World, cfg ServiceConfig) *Service {
	return &Service{
		cfg:   cfg,
		world: w,
		root:  world.NewRNG(cfg.Seed),
		cats:  taxonomy.All(),
	}
}

// accuracyFor returns the label accuracy for a true category.
func (s *Service) accuracyFor(cat taxonomy.Category) float64 {
	if v, ok := s.cfg.Accuracy[cat]; ok {
		return v
	}
	return s.cfg.DefaultAccuracy
}

// Knows reports whether domain is one of the world's own domains: a
// site's canonical domain, or a multi-TLD site's domain under some
// country's suffix. The set is finite, so a memo keyed by the domains
// Knows accepts stays bounded whatever domains clients send.
func (s *Service) Knows(domain string) bool {
	site, ok := s.world.SiteByKey(psl.Default.SiteKey(domain))
	if !ok {
		return false
	}
	k := len(site.Key)
	if len(domain) <= k || domain[:k] != site.Key || domain[k] != '.' {
		return false
	}
	suffix := domain[k+1:]
	if suffix == site.TLD {
		return true
	}
	if site.MultiTLD {
		for _, c := range s.world.Countries() {
			if suffix == c.Suffix {
				return true
			}
		}
	}
	return false
}

// Lookup returns the API's category label for a domain. Labels are
// deterministic per domain: repeated queries agree, as with the real
// API. Unknown is returned for domains the API has never seen.
func (s *Service) Lookup(domain string) taxonomy.Category {
	site, ok := s.world.SiteByKey(psl.Default.SiteKey(domain))
	if !ok {
		return taxonomy.Unknown
	}
	rng := s.root.Fork("label|" + site.Key)
	if rng.Float64() < s.accuracyFor(site.Category) {
		return site.Category
	}
	// Mislabel. The API's signature failure (the reason the paper
	// hand-verifies the flagship categories) is labelling portal-like
	// sites as search engines and community-like sites as social
	// networks — a precision problem concentrated on exactly those two
	// categories.
	if flagship, ok := confusable[site.Category]; ok && rng.Float64() < 0.5 {
		return flagship
	}
	// Beyond that, most errors fall into the generic bucket rather
	// than a specific wrong category, so legitimate categories are not
	// drowned in cross-pollution.
	if site.Category != taxonomy.Unknown && rng.Float64() < 0.45 {
		return taxonomy.Unknown
	}
	// Otherwise occasionally a sibling category in the same
	// super-category (a "maybe" for the human reviewer), else an
	// arbitrary one.
	if rng.Float64() < 0.35 {
		if sup, ok := taxonomy.SuperOf(site.Category); ok {
			sibs := taxonomy.InSuper(sup)
			if len(sibs) > 1 {
				for {
					pick := sibs[rng.Intn(len(sibs))]
					if pick != site.Category {
						return pick
					}
				}
			}
		}
	}
	for {
		pick := s.cats[rng.Intn(len(s.cats))]
		if pick != site.Category {
			return pick
		}
	}
}

// TrueCategory exposes the ground truth (the "manual review" oracle).
func (s *Service) TrueCategory(domain string) (taxonomy.Category, bool) {
	site, ok := s.world.SiteByKey(psl.Default.SiteKey(domain))
	if !ok {
		return taxonomy.Unknown, false
	}
	return site.Category, true
}

// CategoryAccuracy is one row of the Figure 13 validation: manual
// labels for a sample of one API category.
type CategoryAccuracy struct {
	Category  taxonomy.Category
	Correct   int // "Yes" labels
	Maybe     int // "Maybe" (same super-category)
	Incorrect int // "No"
	Sampled   int
	// Kept reports whether the category survives the paper's bar:
	// at least 80 % plausibly-correct and at least one definite yes.
	Kept bool
}

// Accuracy returns the plausibly-correct fraction (yes + maybe).
func (c CategoryAccuracy) Accuracy() float64 {
	if c.Sampled == 0 {
		return 0
	}
	return float64(c.Correct+c.Maybe) / float64(c.Sampled)
}

// Validation is the outcome of the Section 3.2 workflow.
type Validation struct {
	PerCategory []CategoryAccuracy
	// Dropped lists the categories that failed the bar; their sites
	// fall into Unknown downstream.
	Dropped []taxonomy.Category
}

// IsDropped reports whether cat failed validation.
func (v *Validation) IsDropped(cat taxonomy.Category) bool {
	for _, d := range v.Dropped {
		if d == cat {
			return true
		}
	}
	return false
}

// Validate runs the paper's accuracy analysis: for every category, it
// samples up to samplesPerCategory domains the API labels with that
// category, "manually" reviews them against ground truth, and applies
// the 80 % bar.
func Validate(s *Service, samplesPerCategory int) *Validation {
	// Bucket candidate domains by their API label. Iterating the
	// world's site list keeps this deterministic.
	byLabel := make(map[taxonomy.Category][]*world.Site)
	for _, site := range s.world.Sites() {
		label := s.Lookup(site.Domain())
		byLabel[label] = append(byLabel[label], site)
	}

	v := &Validation{}
	rng := s.root.Fork("validate")
	for _, cat := range taxonomy.All() {
		sites := byLabel[cat]
		row := CategoryAccuracy{Category: cat}
		// Sample without replacement.
		idx := rng.Fork("sample|" + string(cat))
		picked := map[int]struct{}{}
		for len(picked) < samplesPerCategory && len(picked) < len(sites) {
			picked[idx.Intn(len(sites))] = struct{}{}
		}
		order := make([]int, 0, len(picked))
		for i := range picked {
			order = append(order, i)
		}
		sort.Ints(order)
		for _, i := range order {
			site := sites[i]
			row.Sampled++
			switch {
			case site.Category == cat:
				row.Correct++
			case sameSuper(site.Category, cat):
				row.Maybe++
			default:
				row.Incorrect++
			}
		}
		row.Kept = row.Sampled > 0 && row.Accuracy() >= 0.8 && row.Correct > 0
		v.PerCategory = append(v.PerCategory, row)
		if !row.Kept {
			v.Dropped = append(v.Dropped, cat)
		}
	}
	return v
}

func sameSuper(a, b taxonomy.Category) bool {
	sa, oka := taxonomy.SuperOf(a)
	sb, okb := taxonomy.SuperOf(b)
	return oka && okb && sa == sb
}
