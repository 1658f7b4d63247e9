package world

import (
	"context"
	"slices"
	"sync"

	"wwb/internal/parallel"
	"wwb/internal/taxonomy"
)

// World is a generated synthetic web universe.
type World struct {
	Cfg Config

	root       *RNG
	countries  []Country
	countryPos map[string]int // country code -> index into countries
	sites      []*Site
	byKey      map[string]*Site
	local      map[*Site][]string // MultiTLD site -> domain per country
	candidates [][]Candidate      // aligned with countries
}

// Candidate pairs a site with its precomputed affinity for one
// country. Only pairs whose affinity-adjusted weight clears the
// config's cutoff are retained.
type Candidate struct {
	Site     *Site
	Affinity float64
	// Domain is the site's domain in the country (Site.DomainIn),
	// shared with every other reader of that domain.
	Domain string
}

// SiteWeight is a site's expected relative traffic in one (country,
// platform, month) cell, for both popularity metrics.
type SiteWeight struct {
	Site  *Site
	Loads float64 // relative page-load propensity
	Time  float64 // relative foreground-time propensity
}

// Countries returns the study countries ordered by code.
func (w *World) Countries() []Country { return w.countries }

// Sites returns every site in the universe in generation order.
func (w *World) Sites() []*Site { return w.sites }

// Domains returns, each once, every domain under which the world's
// sites appear in rank lists: each site's canonical domain and, for
// multi-TLD sites, its domain in every country.
func (w *World) Domains() []string {
	seen := make(map[string]struct{}, len(w.sites))
	var out []string
	add := func(d string) {
		if _, ok := seen[d]; !ok {
			seen[d] = struct{}{}
			out = append(out, d)
		}
	}
	for _, s := range w.sites {
		add(s.domain)
		for _, d := range w.local[s] {
			add(d)
		}
	}
	return out
}

// SiteByKey looks a site up by its merged key.
func (w *World) SiteByKey(key string) (*Site, bool) {
	s, ok := w.byKey[key]
	return s, ok
}

// Affinity returns the market affinity of site s in country c: the
// multiplier on its base weight capturing how present the site is in
// that market. Zero means the site does not surface there at all.
func (w *World) Affinity(s *Site, c Country) float64 {
	return w.affinity(s, &c, s.spillGate())
}

// affinity is Affinity with the site's spill gate supplied by the
// caller, which computes it once per site rather than once per pair.
func (w *World) affinity(s *Site, c *Country, gate float64) float64 {
	censor := 1.0
	if c.CensorsAdult && s.Category == taxonomy.Pornography && s.Home != c.Code {
		censor = w.Cfg.CensorFactor
	}
	if s.Global {
		rng := w.root.forkAffinity(s.Key, c.Code)
		noise := rng.LogNormal(0, w.Cfg.AffinityNoiseAnchor)
		langBoost := 1.0
		if s.Lang != "" && !langIn(s.Lang, c.Languages) {
			langBoost = 0.45 // language-bound anchors travel less
		}
		return noise * langBoost * s.overrideFor(c.Code) * censor
	}
	if s.Home == c.Code {
		return 1
	}
	if s.NoSpill {
		return 0
	}
	hi, ok := w.countryPos[s.Home]
	if !ok {
		return 0
	}
	home := &w.countries[hi]
	base := w.Cfg.GlobalSpill
	switch {
	case home.SharesLanguage(*c):
		base = w.Cfg.LanguageSpill
	case home.Continent == c.Continent:
		base = w.Cfg.RegionSpill
	}
	rng := w.root.forkAffinity(s.Key, c.Code)
	noise := rng.LogNormal(0, w.Cfg.AffinityNoiseNational)
	return base * gate * noise * censor
}

// buildCandidates precomputes, per country, the sites that can surface
// there with their affinities and domains, dropping pairs below the
// cutoff. It is generation's dominant stage, so the countries run on
// the worker pool, which checks ctx between them. Affinity draws come
// from streams forked off the root without advancing it, so the lists
// do not depend on the order the countries run in.
func (w *World) buildCandidates(ctx context.Context) error {
	gates := make([]float64, len(w.sites))
	for i, s := range w.sites {
		gates[i] = s.spillGate()
	}
	// Lists grow in pooled scratch and are stored at their exact
	// length, so generation leaves no append garbage behind.
	scratch := sync.Pool{New: func() any { return new([]Candidate) }}
	lists := make([][]Candidate, len(w.countries))
	err := parallel.ForEachCtx(ctx, len(w.countries), func(_ context.Context, ci int) error {
		c := &w.countries[ci]
		buf := scratch.Get().(*[]Candidate)
		defer scratch.Put(buf)
		list := (*buf)[:0]
		for i, s := range w.sites {
			aff := w.affinity(s, c, gates[i])
			if aff*s.BaseWeight < w.Cfg.CandidateCutoff {
				continue
			}
			d := s.domain
			if s.MultiTLD {
				d = w.local[s][ci]
			}
			list = append(list, Candidate{Site: s, Affinity: aff, Domain: d})
		}
		lists[ci] = slices.Clone(list)
		*buf = list
		return nil
	})
	if err != nil {
		return err
	}
	w.candidates = lists
	return nil
}

// Candidates returns the precomputed candidate list for a country, in
// site-generation order (nil for an unknown code).
func (w *World) Candidates(code string) []Candidate {
	ci, ok := w.countryPos[code]
	if !ok {
		return nil
	}
	return w.candidates[ci]
}

// platformFactor is the multiplier a site's traffic receives on a
// platform: Android traffic scales with the category's mobile lean,
// the site's native-app siphon, and any mobile boost (AMP).
func platformFactor(s *Site, p Platform) float64 {
	if p == Windows {
		return 1
	}
	return taxonomy.TraitsOf(s.Category).MobileLean * s.AppFactor * s.MobileBoost
}

// seasonalFactor applies the December holiday shift and the summer
// break shift (unless the config disables seasonality for ablation).
func (w *World) seasonalFactor(s *Site, m Month) float64 {
	if w.Cfg.DisableSeasonality {
		return 1
	}
	switch {
	case m.IsDecember():
		return taxonomy.TraitsOf(s.Category).DecemberFactor
	case m.IsSummer():
		return taxonomy.SummerFactorOf(s.Category)
	}
	return 1
}

// Weight returns the expected relative traffic of one candidate in a
// (platform, month) cell.
func (w *World) Weight(cand Candidate, p Platform, m Month) SiteWeight {
	s := cand.Site
	loads := s.BaseWeight * cand.Affinity * platformFactor(s, p) * w.seasonalFactor(s, m) * s.drift[m]
	return SiteWeight{
		Site:  s,
		Loads: loads,
		Time:  loads * s.DwellMean * s.dwellDrift[m],
	}
}

// Weights returns the expected relative traffic of every candidate
// site in a (country, platform, month) cell, in candidate order. The
// slice is freshly allocated and unsorted; downstream assembly ranks
// it. The assembly hot path walks Candidates and calls Weight itself.
func (w *World) Weights(code string, p Platform, m Month) []SiteWeight {
	cands := w.Candidates(code)
	out := make([]SiteWeight, len(cands))
	for i, cand := range cands {
		out[i] = w.Weight(cand, p, m)
	}
	return out
}

func langIn(lang string, langs []string) bool {
	for _, l := range langs {
		if l == lang {
			return true
		}
	}
	return false
}
