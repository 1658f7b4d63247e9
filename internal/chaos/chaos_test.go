package chaos

import (
	"context"
	"testing"
	"time"

	"wwb/internal/world"
)

func TestDecideDeterministicPerSeed(t *testing.T) {
	a := NewSchedule(7, 0.5, httpShares...)
	b := NewSchedule(7, 0.5, httpShares...)
	for attempt := 1; attempt <= 16; attempt++ {
		fa, ra := a.Decide("catapi|example.com", attempt)
		fb, rb := b.Decide("catapi|example.com", attempt)
		if fa != fb || ra.Float64() != rb.Float64() {
			t.Fatalf("attempt %d: fault %d != %d or effect streams differ", attempt, fa, fb)
		}
	}
}

func TestDecideIndependentOfCallOrder(t *testing.T) {
	a := NewSchedule(7, 0.5, httpShares...)
	b := NewSchedule(7, 0.5, httpShares...)
	// a draws ops in one order, b in the reverse; per-op faults agree.
	ops := []string{"x", "y", "z", "w"}
	got := map[string]int{}
	for _, op := range ops {
		got[op], _ = a.Decide(op, 1)
	}
	for i := len(ops) - 1; i >= 0; i-- {
		if f, _ := b.Decide(ops[i], 1); f != got[ops[i]] {
			t.Fatalf("op %s: order-dependent fault", ops[i])
		}
	}
}

func TestDecideSeedsDiffer(t *testing.T) {
	a := NewSchedule(1, 0.5, httpShares...)
	b := NewSchedule(2, 0.5, httpShares...)
	same := 0
	const n = 200
	for i := 0; i < n; i++ {
		op := "op" + string(rune('a'+i%26)) + string(rune('0'+i%10))
		fa, _ := a.Decide(op, i%5+1)
		fb, _ := b.Decide(op, i%5+1)
		if fa == fb {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

// TestRatesRoughlyHonoured: each fault fires at about its share of the
// rate, and no draw falls outside the table.
func TestRatesRoughlyHonoured(t *testing.T) {
	s := NewSchedule(3, 0.5, 0.6, 0.4)
	var counts [3]int
	const n = 4000
	for i := 0; i < n; i++ {
		f, _ := s.Decide("bulk|"+string(rune('a'+i%26))+string(rune('a'+(i/26)%26))+string(rune('a'+(i/676)%26))+string(rune('0'+i%10)), 1)
		if f < 0 || f > 2 {
			t.Fatalf("fault %d outside a two-row table", f)
		}
		counts[f]++
	}
	for f, want := range []float64{0.5, 0.3, 0.2} {
		if frac := float64(counts[f]) / n; frac < want-0.05 || frac > want+0.05 {
			t.Errorf("fault %d fraction = %.3f, want ~%.1f", f, frac, want)
		}
	}
}

func TestNilAndDisabledInjectNothing(t *testing.T) {
	var nilSched *Schedule
	if f, _ := nilSched.Decide("x", 1); f != 0 {
		t.Errorf("nil schedule fault = %d", f)
	}
	if s := NewSchedule(9, 0, httpShares...); s != nil {
		t.Error("NewSchedule with rate 0 should return nil")
	}
	if (Config{Seed: 9}).Enabled() {
		t.Error("zero-rate config reports enabled")
	}
}

func TestSlowFaultsCarryBoundedDelay(t *testing.T) {
	root := world.NewRNG(11)
	for i := 0; i < 50; i++ {
		d := SlowDelay(root.Fork(string(rune('a'+i))), time.Millisecond)
		if d < time.Millisecond/2 || d > 3*time.Millisecond/2 {
			t.Fatalf("delay %s out of [0.5ms, 1.5ms]", d)
		}
	}
}

func TestSleepHonoursCancel(t *testing.T) {
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("sleep: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := Sleep(ctx, time.Second); err != context.Canceled {
		t.Errorf("cancelled sleep err = %v", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("cancelled sleep waited out its duration")
	}
}

func TestFlakyClampsRate(t *testing.T) {
	if c := Flaky(1, -2); c.Enabled() {
		t.Error("negative rate enabled chaos")
	}
	c := Flaky(1, 5)
	if c.Rate != 1 {
		t.Fatalf("rate 5 clamped to %v, want 1", c.Rate)
	}
	s := NewSchedule(c.Seed, c.Rate, httpShares...)
	if last := s.cut[len(s.cut)-1]; last > 1.0001 {
		t.Errorf("clamped rates sum to %v", last)
	}
}
