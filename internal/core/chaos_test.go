package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"wwb/internal/catapi"
	"wwb/internal/chaos"
	"wwb/internal/taxonomy"
	"wwb/internal/world"
)

// chaosConfig is a small February-only study with fault injection on
// the categorisation transport.
func chaosConfig(seed uint64, rate float64) Config {
	cfg := SmallConfig().FebOnly()
	cfg.Chaos = chaos.Flaky(seed, rate)
	return cfg
}

// studyDomains returns a deterministic slate of domains to categorize:
// the top 200 of every country's analysis-month loads list.
func studyDomains(s *Study) []string {
	seen := map[string]struct{}{}
	var out []string
	for _, c := range s.Dataset.Countries {
		for _, e := range s.Dataset.List(c, world.Windows, world.PageLoads, s.Month).TopN(200) {
			if _, ok := seen[e.Domain]; !ok {
				seen[e.Domain] = struct{}{}
				out = append(out, e.Domain)
			}
		}
	}
	return out
}

// TestChaosStudyCompletesAndDegradesDeterministically is the chaos-
// mode end-to-end test: a small study assembled under injected faults
// (error rate 0.3) finishes without panicking, degrades some labels to
// Uncategorized, and reproduces the exact same labels when rerun with
// the same chaos seed.
func TestChaosStudyCompletesAndDegradesDeterministically(t *testing.T) {
	s1 := New(chaosConfig(7, 0.3))
	s2 := New(chaosConfig(7, 0.3))

	domains := studyDomains(s1)
	if len(domains) < 500 {
		t.Fatalf("thin domain slate: %d", len(domains))
	}
	degraded := 0
	for _, d := range domains {
		a, b := s1.Categorize(d), s2.Categorize(d)
		if a != b {
			t.Fatalf("%s: same chaos seed disagreed: %v vs %v", d, a, b)
		}
		if a == taxonomy.Uncategorized {
			degraded++
		}
	}
	if degraded == 0 {
		t.Error("no label degraded at 0.3 fault rate")
	}
	if degraded == len(domains) {
		t.Error("every label degraded — retries are not recovering")
	}
	// The exact counts pin the fault schedule and the retry policy: any
	// change to either moves them.
	if degraded != 21 || len(domains) != 4735 {
		t.Errorf("degraded %d of %d domains, want 21 of 4735", degraded, len(domains))
	}
	want := catapi.ClientStats{Lookups: 4451, Attempts: 5945, Retries: 1494, Degraded: 21, PanicsRecovered: 103}
	if st := s1.Client.Stats(); st != want {
		t.Errorf("client stats %+v, want %+v", st, want)
	}
}

// TestChaosSeedChangesDegradation pins that the chaos seed actually
// keys the fault schedule: two seeds must not degrade the same label
// set (the probability of agreement across hundreds of domains is
// negligible).
func TestChaosSeedChangesDegradation(t *testing.T) {
	s1 := New(chaosConfig(7, 0.3))
	s2 := New(chaosConfig(8, 0.3))
	differ := false
	for _, d := range studyDomains(s1) {
		if s1.Categorize(d) != s2.Categorize(d) {
			differ = true
			break
		}
	}
	if !differ {
		t.Error("different chaos seeds produced identical labels everywhere")
	}
}

// TestChaosOffMatchesDirectServicePath guards the byte-identical
// promise: with the zero chaos config, the resilient client must
// return exactly what the raw service returns for every domain, the
// study categorizer must never emit a degraded label, and no failure
// path may run.
func TestChaosOffMatchesDirectServicePath(t *testing.T) {
	s := New(SmallConfig().FebOnly())
	for _, d := range studyDomains(s) {
		if got := s.Categorize(d); got == taxonomy.Uncategorized {
			t.Fatalf("%s: degraded label with chaos off", d)
		}
		cat, err := s.Client.Category(context.Background(), d)
		if err != nil {
			t.Fatalf("%s: client error with chaos off: %v", d, err)
		}
		if want := s.Service.Lookup(d); cat != want {
			t.Fatalf("%s: client %v != service %v", d, cat, want)
		}
	}
	if st := s.Client.Stats(); st.Retries != 0 || st.Degraded != 0 || st.PanicsRecovered != 0 {
		t.Errorf("fault-free study exercised failure paths: %+v", st)
	}
}

// TestNewCtxCancelledMidAssembly covers the acceptance criterion:
// cancelling the context mid-Assemble returns promptly with a context
// error instead of running to completion.
func TestNewCtxCancelledMidAssembly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	s, err := NewCtx(ctx, DefaultConfig()) // default scale would take seconds
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s != nil {
		t.Error("cancelled NewCtx returned a study")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled NewCtx took %s", elapsed)
	}
}

// TestNewCtxTimeoutMidAssembly cancels for real partway through and
// expects a prompt return.
func TestNewCtxTimeoutMidAssembly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := NewCtx(ctx, DefaultConfig())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("timed-out NewCtx took %s to give up", elapsed)
	}
}
