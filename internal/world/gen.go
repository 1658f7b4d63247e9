package world

import (
	"context"
	"fmt"
	"math"

	"wwb/internal/taxonomy"
)

// Generate builds the synthetic universe for cfg: global anchor sites,
// hand-curated national giants, and generated national sites per
// (country, category). Generation is fully deterministic in cfg.Seed.
func Generate(cfg Config) *World {
	w, _ := GenerateCtx(context.Background(), cfg) // a background context never ends
	return w
}

// GenerateCtx is Generate under a context, checked between countries
// in the per-country stages (the national tail and the candidate lists,
// nearly all of generation's time): cancelling returns promptly with the
// context's error and no world. A nil error
// guarantees a world identical to Generate's.
func GenerateCtx(ctx context.Context, cfg Config) (*World, error) {
	w := &World{
		Cfg:       cfg,
		root:      NewRNG(cfg.Seed),
		byKey:     make(map[string]*Site),
		local:     make(map[*Site][]string),
		countries: Countries(),
	}
	w.countryPos = make(map[string]int, len(w.countries))
	for i, c := range w.countries {
		w.countryPos[c.Code] = i
	}

	w.buildAnchors()
	w.buildLocals()
	if err := w.buildNationalTail(ctx); err != nil {
		return nil, err
	}
	w.buildDrift()
	if err := w.buildCandidates(ctx); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *World) buildAnchors() {
	for _, a := range anchors {
		tld := a.tld
		if tld == "" {
			tld = "com"
		}
		app := a.appFactor
		if app == 0 {
			app = 1
		}
		boost := a.mobileBoost
		if boost == 0 {
			boost = 1
		}
		s := &Site{
			Key:         a.key,
			Category:    a.cat,
			Global:      true,
			Lang:        a.lang,
			BaseWeight:  a.weight,
			AppFactor:   app,
			MobileBoost: boost,
			MultiTLD:    a.multiTLD,
			TLD:         tld,
			overrides:   a.overrides,
		}
		if a.dwell > 0 {
			s.DwellMean = a.dwell
		} else {
			s.DwellMean = w.dwellFor(s)
		}
		w.addSite(s)
	}
}

func (w *World) buildLocals() {
	all := make([]localSpec, 0, len(locals)+len(localsExtra))
	all = append(all, locals...)
	all = append(all, localsExtra...)
	for _, l := range all {
		tld := l.tld
		if tld == "" {
			tld = "com"
		}
		app := l.appFactor
		if app == 0 {
			app = 1
		}
		home, ok := CountryByCode(l.home)
		if !ok {
			panic(fmt.Sprintf("world: local site %q has unknown home %q", l.key, l.home))
		}
		s := &Site{
			Key:        l.key,
			Category:   l.cat,
			Home:       l.home,
			Lang:       home.PrimaryLanguage(),
			BaseWeight: l.weight,
			AppFactor:  app, MobileBoost: 1,
			TLD:     tld,
			NoSpill: l.noSpill,
		}
		s.DwellMean = w.dwellFor(s)
		w.addSite(s)
	}
}

// buildNationalTail generates the per-country national site population
// for every category: a within-category Zipf with per-site lognormal
// noise. Site keys are deterministic pseudo-words.
func (w *World) buildNationalTail(ctx context.Context) error {
	cats := taxonomy.GeneratedCategories()
	for _, c := range w.countries {
		if err := ctx.Err(); err != nil {
			return err
		}
		crng := w.root.Fork("tail|" + c.Code)
		for _, cat := range cats {
			tr := taxonomy.TraitsOf(cat)
			n := int(math.Round(float64(tr.SitesPerCountry) * w.Cfg.TailScale))
			if n < 1 {
				n = 1
			}
			head := w.Cfg.NationalScale * math.Pow(tr.HeadWeight, 0.9)
			for i := 0; i < n; i++ {
				key := pseudoWord(crng) + countrySlug(c.Code)
				// Re-roll until unique: at huge tail scales a single
				// retry is not enough (the 2-syllable pseudo-word space
				// is small), and the extra draws only happen where the
				// old single retry would have fired or panicked — the
				// RNG stream is untouched for keys that were already
				// unique, so existing scales generate byte-identically.
				for _, dup := w.byKey[key]; dup; _, dup = w.byKey[key] {
					key = key + pseudoWord(crng)
				}
				noise := crng.LogNormal(0, w.Cfg.TailNoise)
				weight := head * math.Pow(float64(i+1), -w.Cfg.ZipfAlpha) * noise
				s := &Site{
					Key:        key,
					Category:   cat,
					Home:       c.Code,
					Lang:       c.PrimaryLanguage(),
					BaseWeight: weight,
					AppFactor:  1, MobileBoost: 1,
					TLD:     nationalTLD(crng, c, cat),
					NoSpill: nationalNoSpill(cat),
				}
				s.DwellMean = w.dwellFor(s)
				w.addSite(s)
			}
		}
	}
	return nil
}

// nationalNoSpill reports whether a category's national sites stay
// strictly within their home country (government portals, banks,
// universities — Section 5.3.2 finds these are top-10 in exactly one
// country).
func nationalNoSpill(cat taxonomy.Category) bool {
	switch cat {
	case taxonomy.GovernmentPolitics, taxonomy.EducationalInstitutions, taxonomy.EconomyFinance, taxonomy.Television:
		return true
	}
	return false
}

// nationalTLD picks a domain suffix for a generated national site:
// government and university sites use the registry's dedicated
// suffixes; commercial sites mostly use the national suffix with an
// occasional generic .com.
func nationalTLD(rng *RNG, c Country, cat taxonomy.Category) string {
	switch cat {
	case taxonomy.GovernmentPolitics:
		return c.GovSuffix
	case taxonomy.EducationalInstitutions:
		return c.EduSuffix
	}
	if rng.Float64() < 0.25 {
		return "com"
	}
	return c.Suffix
}

// dwellFor draws the site's mean dwell from its category's dwell with
// per-site lognormal noise, from a stream keyed by the site so the
// value is independent of generation order.
func (w *World) dwellFor(s *Site) float64 {
	tr := taxonomy.TraitsOf(s.Category)
	r := w.root.Fork("dwell|" + s.Key)
	return tr.DwellSeconds * r.LogNormal(0, w.Cfg.DwellSigma)
}

// buildDrift precomputes each site's monthly popularity random walk
// and dwell drift across the six study months.
func (w *World) buildDrift() {
	for _, s := range w.sites {
		r := w.root.Fork("drift|" + s.Key)
		cum, dcum := 0.0, 0.0
		for m := range ExtendedMonths {
			cum += r.NormFloat64() * w.Cfg.DriftSigma
			dcum += r.NormFloat64() * w.Cfg.DwellDriftSigma
			s.drift[m] = math.Exp(cum)
			s.dwellDrift[m] = math.Exp(dcum)
		}
	}
}

func (w *World) addSite(s *Site) {
	if _, dup := w.byKey[s.Key]; dup {
		panic(fmt.Sprintf("world: duplicate site key %q", s.Key))
	}
	s.domain = s.Key + "." + s.TLD
	if s.MultiTLD {
		local := make([]string, len(w.countries))
		for i, c := range w.countries {
			local[i] = s.Key + "." + c.Suffix
		}
		w.local[s] = local
	}
	w.byKey[s.Key] = s
	w.sites = append(w.sites, s)
}

// pseudoWord builds a pronounceable 2–4 syllable word deterministically
// from the stream.
func pseudoWord(rng *RNG) string {
	const consonants = "bcdfgklmnprstvz"
	const vowels = "aeiou"
	n := 2 + rng.Intn(3)
	buf := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		buf = append(buf, consonants[rng.Intn(len(consonants))], vowels[rng.Intn(len(vowels))])
	}
	return string(buf)
}

// countrySlug keeps generated keys unique across countries without
// leaking the code into rank analyses (keys only need to be distinct).
func countrySlug(code string) string {
	return string([]byte{code[0] | 0x20, code[1] | 0x20})
}
