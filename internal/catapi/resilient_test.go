package catapi

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wwb/internal/chaos"
	"wwb/internal/taxonomy"
	"wwb/internal/world"
)

// scriptedTransport fails a fixed number of times per domain before
// answering, or always fails when failures < 0.
type scriptedTransport struct {
	mu       sync.Mutex
	failures int
	calls    map[string]int
	err      error
	answer   taxonomy.Category
}

func newScripted(failures int, err error) *scriptedTransport {
	return &scriptedTransport{
		failures: failures,
		calls:    map[string]int{},
		err:      err,
		answer:   taxonomy.Gaming,
	}
}

func (t *scriptedTransport) Lookup(_ context.Context, domain string, _ int) (taxonomy.Category, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls[domain]++
	if t.failures < 0 || t.calls[domain] <= t.failures {
		return taxonomy.Unknown, t.err
	}
	return t.answer, nil
}

func (t *scriptedTransport) callCount(domain string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls[domain]
}

func TestClientRetriesTransientThenSucceeds(t *testing.T) {
	tr := newScripted(2, chaos.ErrTransient)
	c := NewClient(tr)
	cat, err := c.Category(context.Background(), "a.com")
	if err != nil || cat != taxonomy.Gaming {
		t.Fatalf("Category = %v, %v", cat, err)
	}
	if got := tr.callCount("a.com"); got != 3 {
		t.Errorf("transport calls = %d, want 3", got)
	}
	st := c.Stats()
	if st.Retries != 2 || st.Degraded != 0 || st.Lookups != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestClientDegradesWhenBudgetExhausted(t *testing.T) {
	tr := newScripted(-1, chaos.ErrTransient)
	c := NewClient(tr)
	cat, err := c.Category(context.Background(), "down.com")
	if err != nil {
		t.Fatal(err)
	}
	if cat != taxonomy.Uncategorized {
		t.Fatalf("degraded category = %v, want Uncategorized", cat)
	}
	if got := tr.callCount("down.com"); got != 4 {
		t.Errorf("transport calls = %d, want MaxAttempts 4", got)
	}
	if st := c.Stats(); st.Degraded != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestClientLabelsEachDomainOnce: Label resolves every domain it is
// given exactly once and returns each one's label.
func TestClientLabelsEachDomainOnce(t *testing.T) {
	tr := newScripted(1, chaos.ErrTransient)
	c := NewClient(tr)
	domains := make([]string, 100)
	for i := range domains {
		domains[i] = "d" + strconv.Itoa(i) + ".com"
	}
	labels, err := c.Label(context.Background(), domains)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != len(domains) {
		t.Fatalf("%d labels for %d domains", len(labels), len(domains))
	}
	for _, d := range domains {
		if labels[d] != taxonomy.Gaming {
			t.Errorf("%s = %v, want Gaming", d, labels[d])
		}
		if got := tr.callCount(d); got != 2 {
			t.Errorf("%s: transport calls = %d, want 2 (one failure, one answer)", d, got)
		}
	}
	if st := c.Stats(); st.Lookups != int64(len(domains)) {
		t.Errorf("lookups = %d, want %d", st.Lookups, len(domains))
	}
}

// TestClientLabelStopsOnCancel: labelling under a context that has
// ended returns its error and no labels.
func TestClientLabelStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	labels, err := NewClient(newScripted(0, nil)).Label(ctx, []string{"a.com", "b.com"})
	if !errors.Is(err, context.Canceled) || labels != nil {
		t.Fatalf("Label = %v, %v; want no labels and context.Canceled", labels, err)
	}
}

// TestBackoffIsLogical: the client counts its jittered backoff as
// slept but never waits it out, so retrying lookups take less wall
// time than the sleep they report.
func TestBackoffIsLogical(t *testing.T) {
	c := NewClient(newScripted(-1, chaos.ErrTransient))
	before := mSleepSeconds.Value()
	start := time.Now()
	for i := 0; i < 200; i++ {
		if cat, _ := c.Category(context.Background(), "down"+strconv.Itoa(i)+".com"); cat != taxonomy.Uncategorized {
			t.Fatalf("lookup %d = %v, want Uncategorized", i, cat)
		}
	}
	elapsed := time.Since(start)
	slept := time.Duration((mSleepSeconds.Value() - before) * float64(time.Second))
	if slept < 200*time.Millisecond {
		t.Fatalf("200 exhausted lookups counted %s of backoff; the retry plan changed", slept)
	}
	if elapsed >= slept {
		t.Errorf("lookups took %s against %s of logical backoff: the client waited", elapsed, slept)
	}
}

func TestClientDoesNotRetryUnknownErrors(t *testing.T) {
	fatal := errors.New("schema mismatch")
	tr := newScripted(-1, fatal)
	c := NewClient(tr)
	cat, err := c.Category(context.Background(), "weird.com")
	if err != nil {
		t.Fatal(err)
	}
	if cat != taxonomy.Uncategorized {
		t.Fatalf("category = %v", cat)
	}
	if got := tr.callCount("weird.com"); got != 1 {
		t.Errorf("non-retryable error was retried: %d calls", got)
	}
}

func TestClientHonoursRateLimitRetryAfter(t *testing.T) {
	// A Retry-After larger than the sleep budget must stop retries.
	tr := newScripted(-1, &chaos.RateLimitError{RetryAfter: time.Hour})
	c := NewClient(tr)
	start := time.Now()
	cat, err := c.Category(context.Background(), "limited.com")
	if err != nil {
		t.Fatal(err)
	}
	if cat != taxonomy.Uncategorized {
		t.Fatalf("category = %v", cat)
	}
	if got := tr.callCount("limited.com"); got != 1 {
		t.Errorf("budget-busting Retry-After still retried: %d calls", got)
	}
	if time.Since(start) > time.Second {
		t.Error("client slept on a Retry-After beyond its budget")
	}
}

// panicTransport panics a fixed number of times, then answers.
type panicTransport struct {
	remaining atomic.Int64
	answer    taxonomy.Category
}

func (t *panicTransport) Lookup(_ context.Context, _ string, _ int) (taxonomy.Category, error) {
	if t.remaining.Add(-1) >= 0 {
		panic("stage blew up")
	}
	return t.answer, nil
}

func TestClientRecoversTransportPanics(t *testing.T) {
	tr := &panicTransport{answer: taxonomy.Music}
	tr.remaining.Store(2)
	c := NewClient(tr)
	cat, err := c.Category(context.Background(), "panicky.com")
	if err != nil || cat != taxonomy.Music {
		t.Fatalf("Category = %v, %v", cat, err)
	}
	if st := c.Stats(); st.PanicsRecovered != 2 {
		t.Errorf("panics recovered = %d, want 2", st.PanicsRecovered)
	}
}

func TestClientContextCancellationNotMemoized(t *testing.T) {
	tr := newScripted(0, nil)
	c := NewClient(tr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Category(ctx, "late.com"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lookup err = %v", err)
	}
	// A live context must succeed afterwards: nothing of the aborted
	// lookup is kept.
	cat, err := c.Category(context.Background(), "late.com")
	if err != nil || cat != taxonomy.Gaming {
		t.Fatalf("retry after cancellation = %v, %v", cat, err)
	}
}

// cancelAfter cancels the current caller context once the wrapped
// transport has answered, so the first attempt of a lookup is its last.
type cancelAfter struct {
	next   Transport
	cancel context.CancelFunc
}

func (t *cancelAfter) Lookup(ctx context.Context, domain string, attempt int) (taxonomy.Category, error) {
	defer t.cancel()
	return t.next.Lookup(ctx, domain, attempt)
}

// TestCancelledLookupKeepsFaultSchedule: a lookup cancelled mid-retry
// must not shift the domain's fault schedule — resolving it again with
// a live context gives the label a fresh client gives.
func TestCancelledLookupKeepsFaultSchedule(t *testing.T) {
	w := world.Generate(world.SmallConfig())
	svc := NewService(w, DefaultServiceConfig())
	ccfg := chaos.Flaky(99, 0.6)
	fresh := NewClient(NewFlakyTransport(NewServiceTransport(svc), ccfg))
	tr := &cancelAfter{next: NewFlakyTransport(NewServiceTransport(svc), ccfg)}
	c := NewClient(tr)
	cancelled := 0
	for i, s := range w.Sites() {
		if i == 200 {
			break
		}
		d := s.Domain()
		ctx, cancel := context.WithCancel(context.Background())
		tr.cancel = cancel
		if _, err := c.Category(ctx, d); err != nil {
			cancelled++
		}
		tr.cancel = func() {}
		got, err := c.Category(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := fresh.Category(context.Background(), d); got != want {
			t.Errorf("%s: %v after a cancelled lookup, a fresh client gives %v", d, got, want)
		}
	}
	if cancelled == 0 {
		t.Fatal("no lookup was cancelled mid-retry; the test exercises nothing")
	}
}

func TestFlakyClientDeterministicAcrossRunsAndOrder(t *testing.T) {
	w := world.Generate(world.SmallConfig())
	svc := NewService(w, DefaultServiceConfig())
	domains := make([]string, 0, 64)
	for _, s := range w.Sites() {
		domains = append(domains, s.Domain())
		if len(domains) == 64 {
			break
		}
	}
	ccfg := chaos.Flaky(99, 0.6)

	run := func(order []string) map[string]taxonomy.Category {
		tr := NewFlakyTransport(NewServiceTransport(svc), ccfg)
		c := NewClient(tr)
		out := map[string]taxonomy.Category{}
		for _, d := range order {
			cat, err := c.Category(context.Background(), d)
			if err != nil {
				t.Fatal(err)
			}
			out[d] = cat
		}
		return out
	}

	forward := run(domains)
	reversed := make([]string, len(domains))
	for i, d := range domains {
		reversed[len(domains)-1-i] = d
	}
	backward := run(reversed)
	for d, cat := range forward {
		if backward[d] != cat {
			t.Fatalf("domain %s: %v (forward) != %v (backward)", d, cat, backward[d])
		}
	}
	// At 0.6 per-attempt fault rate some lookups must have degraded
	// and some must have survived; both paths are exercised.
	deg, ok := 0, 0
	for _, cat := range forward {
		if cat == taxonomy.Uncategorized {
			deg++
		} else {
			ok++
		}
	}
	if deg == 0 || ok == 0 {
		t.Errorf("degenerate fault mix: %d degraded, %d resolved", deg, ok)
	}
}

func TestFlakyClientOffMatchesServiceExactly(t *testing.T) {
	w := world.Generate(world.SmallConfig())
	svc := NewService(w, DefaultServiceConfig())
	c := NewClient(NewServiceTransport(svc))
	for i, s := range w.Sites() {
		if i == 200 {
			break
		}
		d := s.Domain()
		cat, err := c.Category(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		if want := svc.Lookup(d); cat != want {
			t.Fatalf("%s: client %v != service %v", d, cat, want)
		}
	}
	if st := c.Stats(); st.Retries != 0 || st.Degraded != 0 {
		t.Errorf("fault-free path retried or degraded: %+v", st)
	}
}

func TestFlakyClientConcurrentLookupsDeterministic(t *testing.T) {
	w := world.Generate(world.SmallConfig())
	svc := NewService(w, DefaultServiceConfig())
	var domains []string
	for _, s := range w.Sites() {
		domains = append(domains, s.Domain())
		if len(domains) == 128 {
			break
		}
	}
	ccfg := chaos.Flaky(5, 0.5)

	run := func() map[string]taxonomy.Category {
		tr := NewFlakyTransport(NewServiceTransport(svc), ccfg)
		c := NewClient(tr)
		out := make([]taxonomy.Category, len(domains))
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(domains); i += 8 {
					cat, err := c.Category(context.Background(), domains[i])
					if err != nil {
						t.Error(err)
						return
					}
					out[i] = cat
				}
			}(g)
		}
		wg.Wait()
		m := map[string]taxonomy.Category{}
		for i, d := range domains {
			m[d] = out[i]
		}
		return m
	}
	a, b := run(), run()
	for d := range a {
		if a[d] != b[d] {
			t.Fatalf("domain %s: concurrent runs disagree: %v vs %v", d, a[d], b[d])
		}
	}
}

// TestUnknownDomainLookupsRetainNoHeap: the serving path categorises
// client-supplied domains, so the client may keep nothing per domain.
// 100K lookups of never-seen domains, under chaos, must leave the heap
// retained after a collection where it was, and a repeated unknown
// domain must resolve to the same label.
func TestUnknownDomainLookupsRetainNoHeap(t *testing.T) {
	c := NewClient(NewFlakyTransport(NewServiceTransport(testSvc), chaos.Flaky(7, 0.2)))
	lookup := func(d string) taxonomy.Category {
		cat, err := c.Category(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		return cat
	}
	retained := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 1000; i++ {
		lookup("probe" + strconv.Itoa(i) + ".co.uk")
	}
	before := retained()
	const lookups = 100_000
	for i := 1000; i < 1000+lookups; i++ {
		lookup("probe" + strconv.Itoa(i) + ".co.uk")
	}
	after := retained()
	const bound = 4 << 20
	if after > before+bound {
		t.Fatalf("%d distinct unknown domains left %.1f MiB of heap retained (%.1f → %.1f MiB), want under %d MiB",
			lookups, float64(after-before)/(1<<20), float64(before)/(1<<20), float64(after)/(1<<20), bound>>20)
	}
	for i := 0; i < 50; i++ {
		d := "probe" + strconv.Itoa(i) + ".co.uk"
		if a, b := lookup(d), lookup(d); a != b {
			t.Fatalf("%s: labels %v then %v", d, a, b)
		}
	}
}
