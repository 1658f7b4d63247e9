// Package telemetry simulates the client side of the paper's data
// pipeline: Chrome clients producing page-load and foreground-time
// events, the privacy down-sampling of foreground events (each event
// has a ≈0.35 % chance of being uploaded, Section 3.1), exclusion of
// non-public domains, and the aggregation of client events into
// per-(country, platform, month) site statistics.
//
// Two paths produce the same aggregate shape:
//
//   - An event-level path (Client, Collector) that simulates individual
//     browsing sessions faithfully; used at small scale and in tests to
//     validate the mechanics.
//   - An aggregate path (SampleCell) that samples the same statistical
//     process analytically at population scale; used to assemble the
//     full dataset, exactly as a fleet of hundreds of millions of
//     clients would — the analyses only ever see aggregates.
package telemetry

import (
	"math"
	"slices"
	"sort"
	"sync"

	"wwb/internal/world"
)

// Config parameterises the simulated client population.
type Config struct {
	// LoadsPerClient is the mean completed page loads per client per
	// month.
	LoadsPerClient float64
	// ClientsPerPopUnit converts a country's WebPopulation weight into
	// a client count per platform before the platform split.
	ClientsPerPopUnit float64
	// DownsampleRate is the probability a page-foreground event is
	// uploaded (Chrome uses ≈0.0035).
	DownsampleRate float64
	// VisitsPerClientSite is the mean monthly loads a client gives a
	// site they visit; it converts load counts into unique-client
	// estimates.
	VisitsPerClientSite float64
	// NonPublicShare is the fraction of client page loads that target
	// non-public domains (intranets); Chrome excludes them upstream.
	NonPublicShare float64
}

// DefaultConfig returns production-like rates at simulator scale.
func DefaultConfig() Config {
	return Config{
		LoadsPerClient:      1300,
		ClientsPerPopUnit:   2000,
		DownsampleRate:      0.0035,
		VisitsPerClientSite: 8,
		NonPublicShare:      0.02,
	}
}

// SiteStats is the aggregate telemetry for one site in one cell.
type SiteStats struct {
	// Domain is the site's domain as seen in this country.
	Domain string
	// Loads is the number of completed page loads.
	Loads int64
	// TimeMS is the total foreground time in milliseconds,
	// reconstructed from the down-sampled foreground events (scaled
	// back up by the sampling rate, as the collection pipeline does).
	TimeMS int64
	// Clients is the estimated number of unique clients (browser
	// installs) that visited the site; the privacy threshold applies
	// to this figure.
	Clients int64
}

// Cell identifies one (country, platform, month) aggregation cell.
type Cell struct {
	Country  string
	Platform world.Platform
	Month    world.Month
}

// Clients returns the number of simulated clients for a country and
// platform under cfg.
func (cfg Config) Clients(c world.Country, p world.Platform) float64 {
	pop := c.WebPopulation * cfg.ClientsPerPopUnit
	if p == world.Android {
		return pop * c.MobileShare
	}
	return pop * (1 - c.MobileShare)
}

// CellTotals are the exact whole-cell aggregates a streaming consumer
// needs for coverage fractions: every sampled site contributes,
// including sites below the privacy threshold. The values are integer
// event counts, so converting to float64 is exact for any realistic
// cell volume (< 2^53).
type CellTotals struct {
	// Loads is the cell's total completed page loads.
	Loads int64
	// TimeMS is the cell's total reconstructed foreground milliseconds.
	TimeMS int64
	// Sites is the number of sites with at least one sampled load.
	Sites int
}

// candWeight is what the sampling pass reads about one candidate,
// gathered by the weight pass while the candidate's site is in cache:
// its relative page-load weight and its site's mean dwell.
type candWeight struct{ loads, dwell float64 }

// weightPool recycles the per-cell weight buffers of SampleCellVisit.
var weightPool = sync.Pool{New: func() any { return new([]candWeight) }}

// SampleCellVisit produces the aggregate telemetry for one cell by
// sampling the generative process at population scale — Poisson page
// loads per site, foreground-time reconstruction with down-sampling
// error, and an occupancy-based unique-client estimate — streaming
// one SiteStats at a time to visit instead of materialising a slice.
// Sites arrive in the country's canonical candidate order (unranked),
// each with its position in w.Candidates(cell.Country); exact cell
// totals are accumulated inline and returned. The only per-cell
// buffer is one pooled candWeight per candidate.
//
// rng must be a stream dedicated to this cell so cells are independent
// and reproducible; the draw sequence is identical to SampleCell's,
// so both paths sample identical statistics.
func SampleCellVisit(rng *world.RNG, w *world.World, cfg Config, cell Cell, visit func(pos int, s SiteStats)) CellTotals {
	var tot CellTotals
	c, ok := world.CountryByCode(cell.Country)
	if !ok {
		return tot
	}
	cands := w.Candidates(cell.Country)
	buf := weightPool.Get().(*[]candWeight)
	defer weightPool.Put(buf)
	weights := slices.Grow((*buf)[:0], len(cands))[:len(cands)]
	*buf = weights

	// Pass 1: each candidate's relative weight, computed once, and the
	// cell's total, summed in candidate order.
	var totalWeight float64
	for i, cand := range cands {
		weights[i] = candWeight{w.Weight(cand, cell.Platform, cell.Month).Loads, cand.Site.DwellMean}
		totalWeight += weights[i].loads
	}
	if totalWeight == 0 {
		return tot
	}
	clients := cfg.Clients(c, cell.Platform)
	totalLoads := clients * cfg.LoadsPerClient

	// Pass 2: sample each site. Sites whose Poisson draw is zero
	// consume no further randomness, exactly like the slice path.
	for i, cand := range cands {
		loads := rng.Poisson(weights[i].loads / totalWeight * totalLoads)
		if loads == 0 {
			continue
		}
		s := SiteStats{
			Domain: cand.Domain,
			Loads:  int64(loads),
			TimeMS: sampleTimeMS(rng, float64(loads), weights[i].dwell, cfg.DownsampleRate),
			Clients: uniqueClients(rng, float64(loads), clients,
				cfg.VisitsPerClientSite),
		}
		tot.Loads += s.Loads
		tot.TimeMS += s.TimeMS
		tot.Sites++
		visit(i, s)
	}
	return tot
}

// SampleCell is the slice form of SampleCellVisit: it materialises
// every sampled site's stats in candidate order. The slice is
// deliberately unranked — every caller re-ranks by its own metric, so
// a pre-sort here would be pure waste (the assembly path used to sort
// by loads only for buildCell to immediately re-sort both metric
// lists). Callers needing the historical loads-descending order sort
// the result themselves.
func SampleCell(rng *world.RNG, w *world.World, cfg Config, cell Cell) []SiteStats {
	var out []SiteStats
	tot := SampleCellVisit(rng, w, cfg, cell, func(_ int, s SiteStats) {
		out = append(out, s)
	})
	if tot.Sites == 0 {
		return nil
	}
	return out
}

// SortByLoads ranks stats by loads descending with the domain as
// ascending tie-break — the order SampleCell used to guarantee.
func SortByLoads(stats []SiteStats) {
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Loads != stats[j].Loads {
			return stats[i].Loads > stats[j].Loads
		}
		return stats[i].Domain < stats[j].Domain
	})
}

// sampleTimeMS reconstructs total foreground time from down-sampled
// events. With n = loads·rate uploaded events, the reconstruction's
// relative error shrinks as 1/√n; sites with few loads get noisy time
// (mirroring the telemetry error the paper documents for a small
// fraction of domains).
func sampleTimeMS(rng *world.RNG, loads, dwellSeconds, rate float64) int64 {
	expected := loads * dwellSeconds * 1000
	n := loads * rate
	if n < 1 {
		n = 1
	}
	sigma := 0.45 / math.Sqrt(n) // per-event dwell spread ≈ lognormal σ 0.45
	if sigma > 1.2 {
		sigma = 1.2
	}
	v := expected * rng.LogNormal(-sigma*sigma/2, sigma)
	if v < 0 {
		v = 0
	}
	return int64(v)
}

// uniqueClients estimates distinct visiting clients via the occupancy
// formula: with L loads spread over P clients at k loads per visitor,
// the expected number of distinct visitors is P(1 - exp(-L/(Pk))).
func uniqueClients(rng *world.RNG, loads, population, perVisitor float64) int64 {
	if population <= 0 || perVisitor <= 0 {
		return 0
	}
	mean := population * (1 - math.Exp(-loads/(population*perVisitor)))
	// Mild sampling noise, never exceeding the load count or the
	// population.
	v := mean * rng.LogNormal(0, 0.05)
	if v > loads {
		v = loads
	}
	if v > population {
		v = population
	}
	if v < 1 {
		v = 1
	}
	return int64(v)
}
