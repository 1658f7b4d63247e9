package world

import (
	"context"
	"math"

	"wwb/internal/taxonomy"
)

// World is a generated synthetic web universe.
type World struct {
	Cfg Config

	root       *RNG
	countries  []Country
	sites      []*Site
	byKey      map[string]*Site
	candidates map[string][]Candidate
}

// Candidate pairs a site with its precomputed affinity for one
// country. Only pairs whose affinity-adjusted weight clears the
// config's cutoff are retained.
type Candidate struct {
	Site     *Site
	Affinity float64
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
		add(s.Domain())
		if s.MultiTLD {
			for _, c := range w.countries {
				add(s.DomainIn(c))
			}
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
	censor := 1.0
	if c.CensorsAdult && s.Category == taxonomy.Pornography && s.Home != c.Code {
		censor = w.Cfg.CensorFactor
	}
	if s.Global {
		noise := w.root.Fork("aff|"+s.Key+"|"+c.Code).LogNormal(0, w.Cfg.AffinityNoiseAnchor)
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
	home, ok := CountryByCode(s.Home)
	if !ok {
		return 0
	}
	base := w.Cfg.GlobalSpill
	switch {
	case home.SharesLanguage(c):
		base = w.Cfg.LanguageSpill
	case home.Continent == c.Continent:
		base = w.Cfg.RegionSpill
	}
	// Big sites travel; tail sites stay home. Gating spill by the
	// site's size keeps cross-border similarity concentrated at the
	// head of the web (where the paper's RBO weighting looks) while
	// the long tail stays endemic to one country (Section 5.1: half
	// the sites in some top-1K appear in no other top-10K).
	gate := math.Pow(s.BaseWeight/50, 0.7)
	if gate > 1 {
		gate = 1
	}
	noise := w.root.Fork("aff|"+s.Key+"|"+c.Code).LogNormal(0, w.Cfg.AffinityNoiseNational)
	return base * gate * noise * censor
}

// buildCandidates precomputes, per country, the sites that can surface
// there with their affinities, dropping pairs below the cutoff. It is
// generation's dominant stage, so it checks ctx per country.
func (w *World) buildCandidates(ctx context.Context) error {
	for _, c := range w.countries {
		if err := ctx.Err(); err != nil {
			return err
		}
		var list []Candidate
		for _, s := range w.sites {
			aff := w.Affinity(s, c)
			if aff*s.BaseWeight < w.Cfg.CandidateCutoff {
				continue
			}
			list = append(list, Candidate{Site: s, Affinity: aff})
		}
		w.candidates[c.Code] = list
	}
	return nil
}

// Candidates returns the precomputed candidate list for a country.
func (w *World) Candidates(code string) []Candidate {
	return w.candidates[code]
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

// VisitWeights streams the expected relative traffic of every
// candidate site in a (country, platform, month) cell to fn, in the
// country's canonical candidate order — the exact order Weights
// returns — without materialising a slice. fn returning false stops
// the enumeration early. This is the assembly hot path's iterator:
// per-cell memory stays O(1) no matter how many sites the universe
// holds.
func (w *World) VisitWeights(code string, p Platform, m Month, fn func(SiteWeight) bool) {
	for _, cand := range w.candidates[code] {
		if !fn(w.Weight(cand, p, m)) {
			return
		}
	}
}

// NumCandidates returns how many sites can surface in a country —
// the number of weights VisitWeights will yield (useful for sizing
// buffers without materialising the slice).
func (w *World) NumCandidates(code string) int {
	return len(w.candidates[code])
}

// Weights returns the expected relative traffic of every candidate
// site in a (country, platform, month) cell. The slice is freshly
// allocated and unsorted; downstream assembly ranks it. Large-scale
// callers should prefer VisitWeights, which streams the same values
// in the same order without the allocation.
func (w *World) Weights(code string, p Platform, m Month) []SiteWeight {
	out := make([]SiteWeight, 0, len(w.candidates[code]))
	w.VisitWeights(code, p, m, func(sw SiteWeight) bool {
		out = append(out, sw)
		return true
	})
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
