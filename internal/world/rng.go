// Package world models a synthetic web universe: 45 countries
// (Appendix A of the paper), a population of globally popular anchor
// sites and nationally endemic sites per category, and the behavioural
// structure (dwell times, platform leans, seasonality, language
// clusters) the paper's analyses measure. It replaces the proprietary
// Chrome telemetry's real-world subject — the web and its users — with
// a parameterised, seeded generative model (see DESIGN.md §1).
package world

import "math"

// RNG is a small, deterministic random number generator based on
// splitmix64. It is reproducible across platforms and Go versions
// (unlike math/rand's global functions) and can be forked into
// independent streams keyed by strings, so every entity in the world
// draws from its own stable stream regardless of generation order.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent generator from the current seed and a
// string label. Forking does not advance the parent stream, so the
// derived stream depends only on (parent seed, label).
func (r *RNG) Fork(label string) *RNG {
	// Mix parent seed and label hash through one splitmix64 round.
	return &RNG{state: mix64(r.state ^ fnvAdd(fnvOffset, label))}
}

// forkAffinity is Fork("aff|"+key+"|"+code) with the label hashed
// piece by piece: FNV-1a folds bytes one at a time, so the state is
// the joined string's, and the candidate stage builds no label string
// for each (site, country) pair.
func (r *RNG) forkAffinity(key, code string) RNG {
	h := fnvAdd(fnvAdd(fnvAdd(fnvAdd(fnvOffset, "aff|"), key), "|"), code)
	return RNG{state: mix64(r.state ^ h)}
}

const fnvOffset = 14695981039346656037

// fnvAdd folds s into the FNV-1a 64-bit hash state h.
func fnvAdd(h uint64, s string) uint64 {
	const prime = 1099511628211
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("world: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard-normal sample (polar Box–Muller; the
// spare value is discarded to keep the stream position predictable).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns exp(mu + sigma*Z).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Pareto returns a Pareto(xm, alpha) sample: heavy-tailed popularity
// mass used for base site weights.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return xm / math.Pow(u, 1/alpha)
}

// Poisson returns a Poisson(lambda) sample. For large lambda it uses a
// normal approximation, which is ample for the simulator's purposes.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		v := lambda + math.Sqrt(lambda)*r.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Binomial returns a Binomial(n, p) sample. Large n uses the normal
// approximation with continuity correction.
func (r *RNG) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	if n > 100 && mean > 30 && float64(n)*(1-p) > 30 {
		sd := math.Sqrt(mean * (1 - p))
		v := mean + sd*r.NormFloat64() + 0.5
		if v < 0 {
			return 0
		}
		if v > float64(n) {
			return n
		}
		return int(v)
	}
	k := 0
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			k++
		}
	}
	return k
}
