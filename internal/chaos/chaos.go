// Package chaos is a seed-keyed deterministic fault schedule. It
// models the transport failures the paper's categorisation workflow
// had to survive (Section 3.2: the upstream API was unreliable) and,
// more generally, the flaky-vantage-point reality of web measurement.
//
// One Schedule serves every fault family: a family is a table of
// shares of the chaos rate, and the fault drawn for one attempt of one
// operation is a pure function of (seed, operation key, attempt
// number). The schedule keeps no mutable state, so concurrent callers
// see the same faults regardless of scheduling, and a whole study or
// fleet degrades identically for a given chaos seed. A nil *Schedule
// is valid and draws no fault.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wwb/internal/world"
)

// Config is the whole chaos configuration: the seed that keys the
// schedule and the total per-attempt fault probability, which each
// fault family splits by its share table. The zero value is off.
type Config struct {
	Seed uint64
	Rate float64
}

// Enabled reports whether the config can inject any fault at all.
func (c Config) Enabled() bool { return c.Rate > 0 }

// Flaky is the config behind the -chaos-seed and -chaos-rate flags,
// with the rate clamped to [0, 1].
func Flaky(seed uint64, rate float64) Config {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return Config{Seed: seed, Rate: rate}
}

// FlakyTransport is Flaky under the name the HTTP-side callers
// (wwbbench among them) construct a NewTransport config with.
func FlakyTransport(seed uint64, rate float64) Config { return Flaky(seed, rate) }

// Schedule draws faults from one share table.
type Schedule struct {
	root *world.RNG
	// cut[i] is the running sum of share×rate through fault i+1: one
	// uniform draw below cut[i] (and above cut[i-1]) selects it.
	cut []float64
}

// NewSchedule keys a schedule by root and splits rate across shares,
// in order; it returns nil when rate injects nothing.
func NewSchedule(root uint64, rate float64, shares ...float64) *Schedule {
	if !(rate > 0) {
		return nil
	}
	s := &Schedule{root: world.NewRNG(root)}
	sum := 0.0
	for _, share := range shares {
		sum += share * rate
		s.cut = append(s.cut, sum)
	}
	return s
}

// Decide returns the fault for one attempt of one operation: the
// 1-based index of its row in the share table, or 0 for none, and the
// RNG the draw came from for any further draws the fault's effect
// makes. The result depends only on (root, op, attempt), never on call
// order. Attempts are 1-based.
func (s *Schedule) Decide(op string, attempt int) (int, *world.RNG) {
	if s == nil {
		return 0, nil
	}
	rng := s.root.Fork(fmt.Sprintf("%s|#%d", op, attempt))
	u := rng.Float64()
	for i, c := range s.cut {
		if u < c {
			return i + 1, rng
		}
	}
	return 0, rng
}

// SlowDelay draws a latency spike in [median/2, 3·median/2).
func SlowDelay(rng *world.RNG, median time.Duration) time.Duration {
	return time.Duration((0.5 + rng.Float64()) * float64(median))
}

// ErrTransient is the injected retryable transport error.
var ErrTransient = errors.New("chaos: injected transient transport error")

// RateLimitError is the injected 429-style response.
type RateLimitError struct {
	RetryAfter time.Duration
}

// Error implements error.
func (e *RateLimitError) Error() string {
	return fmt.Sprintf("chaos: injected rate limit (retry after %s)", e.RetryAfter)
}

// Sleep waits for d or until the context is done; it returns the
// context error on cancellation.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
