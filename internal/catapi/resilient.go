package catapi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wwb/internal/chaos"
	"wwb/internal/taxonomy"
	"wwb/internal/world"
)

// The retry policy mirrors the paper's workflow pragmatics: a few
// quick retries with small backoffs (the simulated API answers in
// microseconds), a tight total budget, and a generous per-attempt
// timeout as a hang guard. The values that decide *outcomes*
// (attempts, sleep budget) are logical, not wall-clock, so a lookup's
// result is a pure function of the chaos seed and the domain; the
// wall-clock values (per-attempt timeout, caller context) are safety
// nets for genuinely hung transports.
const (
	// maxAttempts is the total number of transport calls per lookup.
	maxAttempts = 4
	// baseBackoff seeds the exponential backoff: before attempt k+1
	// the client plans baseBackoff*2^(k-1), capped at maxBackoff, and
	// sleeps a full-jitter fraction of it.
	baseBackoff = time.Millisecond
	maxBackoff  = 20 * time.Millisecond
	// sleepBudget caps the cumulative *planned* backoff across a
	// lookup's retries; when the next planned backoff would exceed it,
	// the lookup degrades instead of retrying. Planned (pre-jitter)
	// durations are used so the budget cut-off is deterministic.
	sleepBudget = 50 * time.Millisecond
	// attemptTimeout bounds one transport call's wall-clock time.
	attemptTimeout = time.Second
	// jitterSeed keys the deterministic full-jitter stream.
	jitterSeed = 1
)

// ClientStats counts the resilient client's traffic. All fields are
// monotonic; read them with Stats.
type ClientStats struct {
	// Lookups is the number of distinct domain resolutions performed
	// (memo hits excluded).
	Lookups int64
	// Attempts is the total transport calls issued.
	Attempts int64
	// Retries is the number of attempts beyond each lookup's first.
	Retries int64
	// Degraded counts lookups that exhausted their budget and fell
	// back to taxonomy.Uncategorized.
	Degraded int64
	// PanicsRecovered counts transport panics converted to retryable
	// errors.
	PanicsRecovered int64
}

// errAttemptPanic wraps a recovered transport panic so it can flow
// through the retry loop as an ordinary retryable error.
type errAttemptPanic struct {
	val any
}

func (e *errAttemptPanic) Error() string {
	return fmt.Sprintf("catapi: transport panic recovered: %v", e.val)
}

// lookupEntry is a single-flight memo slot for one domain.
type lookupEntry struct {
	once sync.Once
	cat  taxonomy.Category
	err  error
}

// Client is the resilient categorisation client: bounded retries with
// exponential backoff and deterministic full jitter, per-attempt and
// total budgets, and graceful degradation to taxonomy.Uncategorized
// when the budget is exhausted.
//
// Outcomes are memoized per domain with single-flight, which matches
// the real API's repeated-queries-agree behaviour. Each lookup numbers
// its attempts from 1 and passes the number to the transport, which
// keys the FlakyTransport's fault schedule: for a given chaos seed, a
// domain's label is the same in every run, at every worker count, in
// any lookup order.
type Client struct {
	transport Transport
	jitter    *world.RNG
	// sleep waits out a backoff; in-package tests shrink it.
	sleep func(context.Context, time.Duration) error

	memo sync.Map // domain -> *lookupEntry

	lookups  atomic.Int64
	attempts atomic.Int64
	retries  atomic.Int64
	degraded atomic.Int64
	panics   atomic.Int64
}

// NewClient builds a resilient client over transport.
func NewClient(transport Transport) *Client {
	return &Client{transport: transport, jitter: world.NewRNG(jitterSeed), sleep: chaos.Sleep}
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Lookups:         c.lookups.Load(),
		Attempts:        c.attempts.Load(),
		Retries:         c.retries.Load(),
		Degraded:        c.degraded.Load(),
		PanicsRecovered: c.panics.Load(),
	}
}

// Category resolves a domain's label, degrading to Uncategorized when
// the transport stays unavailable past the retry budget. The error is
// non-nil only when the caller's context ended before the lookup
// resolved; such aborted lookups are not memoized, so a later call
// with a live context retries cleanly.
func (c *Client) Category(ctx context.Context, domain string) (taxonomy.Category, error) {
	for {
		v, ok := c.memo.Load(domain)
		if !ok {
			v, _ = c.memo.LoadOrStore(domain, new(lookupEntry))
		}
		e := v.(*lookupEntry)
		e.once.Do(func() {
			e.cat, e.err = c.resolve(ctx, domain)
		})
		if e.err == nil {
			return e.cat, nil
		}
		// The winning resolver was cancelled. Drop the poisoned entry;
		// if our own context is also done, report that, otherwise loop
		// and resolve afresh.
		c.memo.CompareAndDelete(domain, e)
		if ctx.Err() != nil {
			return taxonomy.Uncategorized, ctx.Err()
		}
	}
}

// retryable reports whether an attempt error is worth retrying.
func retryable(err error) bool {
	var rl *chaos.RateLimitError
	var pan *errAttemptPanic
	return errors.Is(err, chaos.ErrTransient) ||
		errors.As(err, &rl) ||
		errors.As(err, &pan) ||
		errors.Is(err, context.DeadlineExceeded)
}

// resolve runs the retry loop for one domain. It returns a non-nil
// error only on caller-context cancellation.
func (c *Client) resolve(ctx context.Context, domain string) (taxonomy.Category, error) {
	if err := ctx.Err(); err != nil {
		// Don't start work on a dead context.
		return taxonomy.Uncategorized, err
	}
	c.lookups.Add(1)
	mLookups.Inc()

	var planned time.Duration // cumulative planned backoff
	for attempt := 1; ; attempt++ {
		cat, err := c.attemptOnce(ctx, domain, attempt)
		if err == nil {
			return cat, nil
		}
		if ctx.Err() != nil {
			// Don't let a dying context masquerade as a transport
			// verdict.
			return taxonomy.Uncategorized, ctx.Err()
		}
		if !retryable(err) || attempt >= maxAttempts {
			break
		}
		// Plan the next backoff deterministically; degrade rather than
		// retry once the budget is spent.
		next := plannedBackoff(attempt)
		var rl *chaos.RateLimitError
		if errors.As(err, &rl) && rl.RetryAfter > next {
			next = rl.RetryAfter
		}
		if planned+next > sleepBudget {
			break
		}
		planned += next
		c.retries.Add(1)
		mRetries.Inc()
		// Full jitter: sleep uniform [0, next), drawn from a stream
		// keyed by (jitter seed, domain, attempt) so the duration — and
		// with it the sleep budget arithmetic above, which uses the
		// pre-jitter plan — never depends on scheduling.
		d := time.Duration(c.jitter.Fork(fmt.Sprintf("backoff|%s|%d", domain, attempt)).Float64() * float64(next))
		mSleepSeconds.Add(d.Seconds())
		if err := c.sleep(ctx, d); err != nil {
			return taxonomy.Uncategorized, err
		}
	}
	c.degraded.Add(1)
	mDegraded.Inc()
	return taxonomy.Uncategorized, nil
}

// plannedBackoff is the deterministic pre-jitter backoff before
// attempt k+1 (1-based k): baseBackoff*2^(k-1) capped at maxBackoff.
func plannedBackoff(k int) time.Duration {
	d := baseBackoff
	for i := 1; i < k && d < maxBackoff; i++ {
		d *= 2
	}
	return min(d, maxBackoff)
}

// attemptOnce runs a single transport call under the per-attempt
// timeout, converting panics into retryable errors.
func (c *Client) attemptOnce(ctx context.Context, domain string, attempt int) (cat taxonomy.Category, err error) {
	c.attempts.Add(1)
	mAttempts.Inc()
	actx, cancel := context.WithTimeout(ctx, attemptTimeout)
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			c.panics.Add(1)
			mTransportPanics.Inc()
			cat, err = taxonomy.Unknown, &errAttemptPanic{val: r}
		}
	}()
	return c.transport.Lookup(actx, domain, attempt)
}

// LookupFunc adapts the client to the plain func(domain) Category
// shape the Categorizer and the analyses consume. It resolves under
// context.Background(): study analyses never abandon a categorisation
// mid-flight, they degrade instead.
func (c *Client) LookupFunc() func(domain string) taxonomy.Category {
	return func(domain string) taxonomy.Category {
		cat, err := c.Category(context.Background(), domain)
		if err != nil {
			return taxonomy.Uncategorized
		}
		return cat
	}
}
