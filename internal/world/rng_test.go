package world

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
}

func TestRNGSeedSeparation(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d times", same)
	}
}

func TestForkStability(t *testing.T) {
	r := NewRNG(42)
	f1 := r.Fork("site|google")
	// Advancing the parent must not change what a fork produces.
	r.Uint64()
	f2 := NewRNG(42).Fork("site|google")
	for i := 0; i < 10; i++ {
		if f1.Uint64() != f2.Uint64() {
			t.Fatal("fork must depend only on (seed, label)")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRNG(42)
	a, b := r.Fork("a"), r.Fork("b")
	if a.Uint64() == b.Uint64() {
		t.Error("different labels should yield different streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(3)
	n := 50000
	var sum, ss float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		ss += v * v
	}
	mean := sum / float64(n)
	variance := ss/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 1000; i++ {
		if r.LogNormal(0, 0.5) <= 0 {
			t.Fatal("lognormal must be positive")
		}
	}
}

func TestParetoTail(t *testing.T) {
	r := NewRNG(5)
	n := 20000
	over := 0
	for i := 0; i < n; i++ {
		v := r.Pareto(1, 1.5)
		if v < 1 {
			t.Fatalf("Pareto below xm: %v", v)
		}
		if v > 10 {
			over++
		}
	}
	// P[X > 10] = 10^-1.5 ≈ 0.0316.
	frac := float64(over) / float64(n)
	if frac < 0.02 || frac > 0.05 {
		t.Errorf("Pareto tail fraction = %v, want ≈0.032", frac)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(6)
	for _, lambda := range []float64{0.5, 4, 40, 900} {
		n := 5000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		mean := sum / float64(n)
		if math.Abs(mean-lambda) > 4*math.Sqrt(lambda/float64(n))+0.5 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("non-positive lambda should yield 0")
	}
}

func TestBinomialMeanAndBounds(t *testing.T) {
	r := NewRNG(7)
	for _, c := range []struct {
		n int
		p float64
	}{{10, 0.3}, {1000, 0.0035}, {100000, 0.5}} {
		var sum float64
		trials := 2000
		for i := 0; i < trials; i++ {
			k := r.Binomial(c.n, c.p)
			if k < 0 || k > c.n {
				t.Fatalf("Binomial out of bounds: %d", k)
			}
			sum += float64(k)
		}
		mean := sum / float64(trials)
		want := float64(c.n) * c.p
		sd := math.Sqrt(want * (1 - c.p))
		if math.Abs(mean-want) > 5*sd/math.Sqrt(float64(trials))+0.5 {
			t.Errorf("Binomial(%d,%v) mean = %v, want %v", c.n, c.p, mean, want)
		}
	}
	if r.Binomial(10, 0) != 0 || r.Binomial(10, 1) != 10 || r.Binomial(0, 0.5) != 0 {
		t.Error("binomial edge cases wrong")
	}
}

func TestForkLabelPropertyNoCollisions(t *testing.T) {
	// Distinct labels should essentially never produce identical first
	// draws.
	f := func(a, b string) bool {
		if a == b {
			return true
		}
		r := NewRNG(99)
		return r.Fork(a).Uint64() != r.Fork(b).Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestForkAffinityMatchesFork: the affinity stream hashes its label in
// pieces, and must land on the state Fork of the joined label gives —
// for keys with and without the separator, and for empty pieces.
func TestForkAffinityMatchesFork(t *testing.T) {
	root := NewRNG(42)
	for _, tc := range []struct{ key, code string }{
		{"google", "US"},
		{"brportal3", "BR"},
		{"a|b", "KR"},
		{"|", "|"},
		{"", "JP"},
		{"naver", ""},
		{"", ""},
	} {
		got := root.forkAffinity(tc.key, tc.code)
		want := root.Fork("aff|" + tc.key + "|" + tc.code)
		if got.state != want.state {
			t.Errorf("forkAffinity(%q, %q) state %#x, Fork %#x", tc.key, tc.code, got.state, want.state)
		}
	}
}
