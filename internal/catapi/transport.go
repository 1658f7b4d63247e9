package catapi

import (
	"context"
	"time"

	"wwb/internal/chaos"
	"wwb/internal/taxonomy"
)

// Transport is the wire-level categorisation API: the part of the
// Section 3.2 workflow that can fail. The in-process Service never
// does; chaos mode wraps it in a FlakyTransport so the resilient
// client has something real to survive. Attempts are the caller's
// 1-based retry count for the domain.
type Transport interface {
	Lookup(ctx context.Context, domain string, attempt int) (taxonomy.Category, error)
}

// serviceTransport adapts *Service to Transport; it is infallible.
type serviceTransport struct {
	svc *Service
}

// NewServiceTransport wraps an in-process service as a Transport.
func NewServiceTransport(svc *Service) Transport {
	return serviceTransport{svc: svc}
}

func (t serviceTransport) Lookup(_ context.Context, domain string, _ int) (taxonomy.Category, error) {
	return t.svc.Lookup(domain), nil
}

// The lookup fault family, in draw order, and each fault's share of
// the chaos rate.
const (
	// faultPanic aborts the stage with a panic (the resilient client
	// recovers it).
	faultPanic = 1 + iota
	// faultTransient is a retryable transport error.
	faultTransient
	// faultRateLimit is a 429-style response with a Retry-After hint.
	faultRateLimit
	// faultSlow adds latency before the call succeeds.
	faultSlow
)

var lookupShares = []float64{0.05, 0.60, 0.20, 0.15}

const (
	// slowLatency is the median injected delay; sub-millisecond, so
	// studies stay fast under test.
	slowLatency = 200 * time.Microsecond
	// retryAfter is the hint attached to rate-limit faults.
	retryAfter = 100 * time.Microsecond
)

// FlakyTransport decorates a Transport with deterministic injected
// faults keyed by (chaos seed, domain, attempt number). The attempt
// number comes from the caller's retry loop, so the fault an attempt
// sees depends neither on how lookups for different domains
// interleave nor on earlier, abandoned lookups of the same domain.
type FlakyTransport struct {
	next  Transport
	sched *chaos.Schedule
}

// NewFlakyTransport wires the lookup fault schedule in front of next.
// A config that injects nothing yields a transparent pass-through.
func NewFlakyTransport(next Transport, cfg chaos.Config) *FlakyTransport {
	return &FlakyTransport{next: next, sched: chaos.NewSchedule(cfg.Seed, cfg.Rate, lookupShares...)}
}

// decide draws one attempt's fault and the wait it carries: the delay
// of a slow fault or the Retry-After of a rate limit.
func (t *FlakyTransport) decide(domain string, attempt int) (int, time.Duration) {
	fault, rng := t.sched.Decide("catapi|"+domain, attempt)
	switch fault {
	case faultRateLimit:
		return fault, retryAfter
	case faultSlow:
		return fault, chaos.SlowDelay(rng, slowLatency)
	}
	return fault, 0
}

// Lookup draws this attempt's fault and either fails, delays, panics,
// or passes through to the wrapped transport.
func (t *FlakyTransport) Lookup(ctx context.Context, domain string, attempt int) (taxonomy.Category, error) {
	fault, wait := t.decide(domain, attempt)
	switch fault {
	case faultPanic:
		panic("chaos: injected categorisation stage panic for " + domain)
	case faultTransient:
		return taxonomy.Unknown, chaos.ErrTransient
	case faultRateLimit:
		return taxonomy.Unknown, &chaos.RateLimitError{RetryAfter: wait}
	case faultSlow:
		if err := chaos.Sleep(ctx, wait); err != nil {
			return taxonomy.Unknown, err
		}
	}
	return t.next.Lookup(ctx, domain, attempt)
}
