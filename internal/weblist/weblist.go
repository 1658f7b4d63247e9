// Package weblist synthesises the third-party top-site lists the
// paper's related work critiques (Section 2): researchers often treat
// the Alexa Top Million, Cisco Umbrella 1M and Majestic Million as
// proxies for browsing behaviour, but those lists measure different
// phenomena — panel browsing, DNS resolutions, and inbound links —
// and prior work found them brittle and inaccurate for that purpose.
//
// Each provider here derives its list from the same underlying world
// as the study's browsing dataset, but through that provider's lens
// and with its characteristic biases, so the disagreement between
// "ranked by real browsing" and "ranked by list X" can be measured
// (the paper's motivation for using CrUX-grade data in the first
// place).
package weblist

import (
	"sort"

	"wwb/internal/chrome"
	"wwb/internal/psl"
	"wwb/internal/taxonomy"
	"wwb/internal/world"
)

// Provider identifies a synthetic list provider.
type Provider int

// The three providers the paper's related work names.
const (
	// AlexaLike ranks by a small browsing panel: correct signal,
	// heavy sampling noise, skewed toward countries where the panel
	// toolbar was popular.
	AlexaLike Provider = iota
	// UmbrellaLike ranks by DNS resolution volume: inflated by
	// machine-generated lookups (CDNs, telemetry, ad infrastructure)
	// and indifferent to dwell time.
	UmbrellaLike
	// MajesticLike ranks by inbound link counts: favours old,
	// reference-heavy sites and lags actual browsing shifts.
	MajesticLike
)

// String implements fmt.Stringer.
func (p Provider) String() string {
	switch p {
	case AlexaLike:
		return "alexa-like panel"
	case UmbrellaLike:
		return "umbrella-like DNS"
	case MajesticLike:
		return "majestic-like links"
	default:
		return "unknown provider"
	}
}

// Providers lists all providers.
var Providers = []Provider{AlexaLike, UmbrellaLike, MajesticLike}

// Options configures list synthesis.
type Options struct {
	// Seed drives the provider-specific noise.
	Seed uint64
	// PanelSize is the Alexa-like panel's effective sample, in page
	// loads; smaller panels yield noisier ranks.
	PanelSize float64
	// InfraBoost is the Umbrella-like multiplier applied to
	// infrastructure-heavy categories.
	InfraBoost float64
	// LinkAge is the Majestic-like bias toward reference content.
	LinkAge float64
}

// DefaultOptions mirrors the documented failure modes.
func DefaultOptions() Options {
	return Options{
		Seed:       9,
		PanelSize:  2e6,
		InfraBoost: 6,
		LinkAge:    4,
	}
}

// Build synthesises a provider's global top-N list of merged site
// keys from the world's ground-truth browsing weights.
func Build(w *world.World, p Provider, opts Options, n int) []string {
	rng := world.NewRNG(opts.Seed).Fork("weblist|" + p.String())

	// Ground truth: global Windows page-load weight per merged key,
	// population-weighted across countries.
	truth := map[string]float64{}
	dwell := map[string]float64{}
	category := map[string]taxonomy.Category{}
	for _, c := range w.Countries() {
		weights := w.Weights(c.Code, world.Windows, world.Feb2022)
		var total float64
		for _, sw := range weights {
			total += sw.Loads
		}
		if total == 0 {
			continue
		}
		scale := c.WebPopulation / total
		for _, sw := range weights {
			truth[sw.Site.Key] += sw.Loads * scale
			dwell[sw.Site.Key] = sw.Site.DwellMean
			category[sw.Site.Key] = sw.Site.Category
		}
	}

	var unit float64
	if p == AlexaLike {
		unit = panelUnit(w, truth, opts.PanelSize)
	}
	scores := make(map[string]float64, len(truth))
	for key, volume := range truth {
		switch p {
		case AlexaLike:
			// Panel sampling: expected panel hits are proportional to
			// volume; Poisson noise at the panel's scale reorders the
			// tail badly while the head stays roughly right.
			scores[key] = float64(rng.Fork("panel|" + key).Poisson(volume / unit))
		case UmbrellaLike:
			// DNS volume: browsing resolutions plus machine traffic.
			boost := 1.0
			switch category[key] {
			case taxonomy.Technology, taxonomy.Business, taxonomy.Redirect, taxonomy.Unknown:
				boost = opts.InfraBoost
			}
			// Short-dwell, high-churn sites resolve more often per
			// load (many small fetches).
			churn := 1 + 40/(dwell[key]+10)
			noise := rng.Fork("dns|"+key).LogNormal(0, 0.5)
			scores[key] = volume * boost * churn * noise
		case MajesticLike:
			// Inbound links: reference and institutional content
			// accumulates links far beyond its browsing volume;
			// entertainment consumption earns few.
			boost := 1.0
			switch category[key] {
			case taxonomy.Education, taxonomy.EducationalInstitutions, taxonomy.Science,
				taxonomy.GovernmentPolitics, taxonomy.NewsMedia, taxonomy.Technology:
				boost = opts.LinkAge
			case taxonomy.Pornography, taxonomy.VideoStreaming, taxonomy.Gambling,
				taxonomy.ChatMessaging:
				boost = 1 / opts.LinkAge
			}
			noise := rng.Fork("links|"+key).LogNormal(0, 0.8)
			scores[key] = volume * boost * noise
		}
	}

	keys := make([]string, 0, len(scores))
	for k := range scores {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if scores[keys[i]] != scores[keys[j]] {
			return scores[keys[i]] > scores[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if n < len(keys) {
		keys = keys[:n]
	}
	return keys
}

// panelUnit converts total volume into per-panel-hit volume so the
// expected number of panel observations across all sites is
// opts.PanelSize. The total is summed in site-generation order, so it
// does not depend on map iteration order.
func panelUnit(w *world.World, truth map[string]float64, panelSize float64) float64 {
	var total float64
	for _, s := range w.Sites() {
		total += truth[s.Key]
	}
	if panelSize <= 0 || total == 0 {
		return 1
	}
	return total / panelSize
}

// BrowsingTop returns the study's ground-truth global top-N (merged
// keys ranked by the dataset's aggregated page loads) for comparison.
func BrowsingTop(ds *chrome.Dataset, month world.Month, n int) []string {
	agg := map[string]float64{}
	for _, country := range ds.Countries {
		for _, e := range ds.List(country, world.Windows, world.PageLoads, month) {
			agg[psl.Default.SiteKey(e.Domain)] += e.Value
		}
	}
	keys := make([]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if agg[keys[i]] != agg[keys[j]] {
			return agg[keys[i]] > agg[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if n < len(keys) {
		keys = keys[:n]
	}
	return keys
}
