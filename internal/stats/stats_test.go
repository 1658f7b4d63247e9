package stats

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"wwb/internal/keyset"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
		{nil, math.NaN()},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1.5, 2.5, -1}); got != 3 {
		t.Errorf("Sum = %v, want 3", got)
	}
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %v, want 0", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if !math.IsNaN(Variance(nil)) {
		t.Error("Variance(nil) should be NaN")
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
}

func TestQuantileEdges(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("Q0 = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("Q1 = %v, want 5", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("Q.25 = %v, want 2", got)
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("out-of-range q should yield NaN")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty slice should yield NaN")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{10, 20}
	if got := Quantile(xs, 0.5); got != 15 {
		t.Errorf("interpolated median = %v, want 15", got)
	}
	if got := Quantile(xs, 0.75); got != 17.5 {
		t.Errorf("Q.75 = %v, want 17.5", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated input: %v", xs)
	}
}

func TestQuartiles(t *testing.T) {
	q1, q2, q3 := Quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 2 || q2 != 3 || q3 != 4 {
		t.Errorf("Quartiles = %v,%v,%v want 2,3,4", q1, q2, q3)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %v,%v want -1,7", min, max)
	}
	min, max = MinMax(nil)
	if !math.IsNaN(min) || !math.IsNaN(max) {
		t.Error("MinMax(nil) should be NaN,NaN")
	}
}

func TestRanksNoTies(t *testing.T) {
	ranks := Ranks([]float64{30, 10, 20})
	want := []float64{3, 1, 2}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", ranks, want)
		}
	}
}

func TestRanksWithTies(t *testing.T) {
	// 10,10 tie for ranks 1,2 -> both 1.5; 20 -> 3; 30,30 tie for 4,5 -> 4.5.
	ranks := Ranks([]float64{10, 30, 20, 10, 30})
	want := []float64{1.5, 4.5, 3, 1.5, 4.5}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", ranks, want)
		}
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", got)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1, 1}, []float64{1, 2})) {
		t.Error("constant series should yield NaN")
	}
	if !math.IsNaN(Pearson([]float64{1}, []float64{1})) {
		t.Error("single pair should yield NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 2}, []float64{1})) {
		t.Error("length mismatch should yield NaN")
	}
}

func TestSpearmanMonotonic(t *testing.T) {
	// Any monotone transform should give rho = 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	if got := Spearman(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Spearman = %v, want 1", got)
	}
}

func TestSpearmanReversed(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{5, 4, 3, 2, 1}
	if got := Spearman(xs, ys); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Spearman = %v, want -1", got)
	}
}

func TestSpearmanKnownValue(t *testing.T) {
	// Classic textbook example.
	xs := []float64{106, 86, 100, 101, 99, 103, 97, 113, 112, 110}
	ys := []float64{7, 0, 27, 50, 28, 29, 20, 12, 6, 17}
	got := Spearman(xs, ys)
	if !almostEqual(got, -0.17575757575, 1e-9) {
		t.Errorf("Spearman = %v, want -0.1757...", got)
	}
}

func TestSpearmanRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(rng.Float64() * 10) // induce ties
			ys[i] = math.Floor(rng.Float64() * 10)
		}
		rho := Spearman(xs, ys)
		return math.IsNaN(rho) || (rho >= -1-1e-9 && rho <= 1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFisherExactKnown(t *testing.T) {
	// Tea-tasting: (3,1;1,3) two-sided p ≈ 0.4857.
	p := FisherExact(3, 1, 1, 3)
	if !almostEqual(p, 0.4857142857, 1e-9) {
		t.Errorf("FisherExact(3,1,1,3) = %v, want 0.48571...", p)
	}
	// Strong association: (10,0;0,10) two-sided p = 2/C(20,10).
	p = FisherExact(10, 0, 0, 10)
	want := 2.0 / 184756.0
	if !almostEqual(p, want, 1e-12) {
		t.Errorf("FisherExact(10,0,0,10) = %v, want %v", p, want)
	}
}

func TestFisherExactSymmetry(t *testing.T) {
	// Transposing the table must not change the p-value.
	p1 := FisherExact(12, 5, 7, 9)
	p2 := FisherExact(12, 7, 5, 9)
	if !almostEqual(p1, p2, 1e-9) {
		t.Errorf("transpose symmetry broken: %v vs %v", p1, p2)
	}
}

func TestFisherExactNoAssociation(t *testing.T) {
	// Perfectly proportional table: p should be 1 (observed is modal).
	p := FisherExact(10, 10, 10, 10)
	if p < 0.99 || p > 1 {
		t.Errorf("FisherExact balanced = %v, want ~1", p)
	}
}

func TestFisherExactEdges(t *testing.T) {
	if p := FisherExact(0, 0, 0, 0); p != 1 {
		t.Errorf("empty table p = %v, want 1", p)
	}
	if !math.IsNaN(FisherExact(-1, 0, 0, 0)) {
		t.Error("negative count should yield NaN")
	}
}

func TestFisherExactLargeCounts(t *testing.T) {
	// Large weighted volumes must stay finite and sane.
	p := FisherExact(50000, 48000, 52000, 51000)
	if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 1 {
		t.Errorf("large-count p out of range: %v", p)
	}
	// A clearly significant large table.
	p = FisherExact(60000, 40000, 40000, 60000)
	if p > 1e-10 {
		t.Errorf("expected tiny p for strong association, got %v", p)
	}
}

func TestFisherExactPValueRangeProperty(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		p := FisherExact(int(a), int(b), int(c), int(d))
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// fisherLogGammaOracle is an independent log-space implementation of
// FisherExact, kept as an oracle: every term of a ±60 sd window is
// evaluated from three logChoose calls. Its own relative error on
// weighted tables (n ≈ 400,000) is about 2e-9, from cancellation between
// log-gamma values near 4.7e6.
func fisherLogGammaOracle(a, b, c, d int) float64 {
	if a < 0 || b < 0 || c < 0 || d < 0 {
		return math.NaN()
	}
	r1 := a + b // margin: hits
	r2 := c + d // margin: misses
	c1 := a + c // margin: group1
	n := r1 + r2
	if n == 0 {
		return 1
	}

	// Support of a given the margins.
	lo := 0
	if c1-r2 > 0 {
		lo = c1 - r2
	}
	hi := c1
	if r1 < hi {
		hi = r1
	}

	logpObs := logHypergeomPMF(a, r1, r2, c1)
	// Tolerance absorbs floating-point noise when comparing tail
	// probabilities against the observed one.
	const eps = 1e-7

	// Restrict the scan to the window where the PMF is numerically
	// non-zero: the hypergeometric concentrates within a few dozen
	// standard deviations of its mean, and terms beyond ~60 sd are
	// below 1e-300. This turns huge-count tables (weighted traffic
	// volumes) from O(support) into O(sd).
	mean := float64(c1) * float64(r1) / float64(n)
	sd := math.Sqrt(mean * float64(r2) / float64(n) * float64(n-c1) / float64(max(n-1, 1)))
	winLo, winHi := lo, hi
	if sd > 0 {
		if v := int(mean - 60*sd); v > winLo {
			winLo = v
		}
		if v := int(mean + 60*sd + 1); v < winHi {
			winHi = v
		}
	}
	// The observed cell always participates.
	if a < winLo {
		winLo = a
	}
	if a > winHi {
		winHi = a
	}

	var p float64
	for x := winLo; x <= winHi; x++ {
		lp := logHypergeomPMF(x, r1, r2, c1)
		if lp <= logpObs+eps {
			p += math.Exp(lp)
		}
	}
	if p > 1 {
		p = 1
	}
	return p
}

// logHypergeomPMF returns log P[X = x] where X is hypergeometric with
// r1 "successes", r2 "failures" and c1 draws:
//
//	P[X=x] = C(r1, x) * C(r2, c1-x) / C(r1+r2, c1)
func logHypergeomPMF(x, r1, r2, c1 int) float64 {
	if x < 0 || x > r1 || c1-x < 0 || c1-x > r2 {
		return math.Inf(-1)
	}
	return logChoose(r1, x) + logChoose(r2, c1-x) - logChoose(r1+r2, c1)
}

// logChoose returns log C(n, k) via log-gamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(v int) float64 {
		r, _ := math.Lgamma(float64(v + 1))
		return r
	}
	return lg(n) - lg(k) - lg(n-k)
}

// fisherBig is the whole-support reference: it walks every table with
// the observed margins, outward from the observed one (weight 1), by the
// exact integer ratio of consecutive terms in 256-bit floats (whose
// exponent never underflows), and sums the terms no larger than 1+1e-7
// over all of them.
func fisherBig(a, b, c, d int) float64 {
	r1, r2, c1 := a+b, c+d, a+c
	if r1+r2 == 0 {
		return 1
	}
	lo, hi := max(0, c1-r2), min(c1, r1)
	newF := func() *big.Float { return new(big.Float).SetPrec(256) }
	tail := newF().SetFloat64(1 + 1e-7)
	total, p := newF().SetInt64(1), newF().SetInt64(1)
	t, num, den := newF(), newF(), newF()
	walk := func(end, step int, ratio func(x int) (int64, int64)) {
		t.SetInt64(1)
		for x := a; x != end; x += step {
			n, d := ratio(x)
			t.Mul(t, num.SetInt64(n)).Quo(t, den.SetInt64(d))
			addRounded(total, t)
			if t.Cmp(tail) <= 0 {
				addRounded(p, t)
			}
		}
	}
	walk(hi, +1, func(x int) (int64, int64) {
		return int64(r1-x) * int64(c1-x), int64(x+1) * int64(r2-c1+x+1)
	})
	walk(lo, -1, func(x int) (int64, int64) {
		return int64(x) * int64(r2-c1+x), int64(r1-x+1) * int64(c1-x+1)
	})
	v, _ := p.Quo(p, total).Float64()
	return v
}

// addRounded sets sum += t, as sum.Add would round it. big.Float aligns
// the operands by shifting one mantissa by their exponent gap, which
// costs time and memory linear in the gap (millions of bits across a
// weighted table's support); an operand more than 300 binary orders
// below the other is under half an ulp at 256 bits and cannot change
// the rounded sum, so it is dropped instead.
func addRounded(sum, t *big.Float) {
	if sum.Sign() == 0 {
		sum.Set(t)
		return
	}
	switch gap := sum.MantExp(nil) - t.MantExp(nil); {
	case gap < -300:
		sum.Set(t)
	case gap <= 300:
		sum.Add(sum, t)
	}
}

// relClose reports whether got is within tol of want, relatively;
// references below 1e-250 only require got to be as small.
func relClose(got, want, tol float64) bool {
	if want < 1e-250 {
		return got < 1e-240
	}
	return math.Abs(got-want) <= tol*want
}

func TestFisherExactSmallTablesMatchBig(t *testing.T) {
	grid := []int{0, 1, 2, 3, 5, 8, 12, 17, 23, 29}
	for _, a := range grid {
		for _, b := range grid {
			for _, c := range grid {
				for _, d := range grid {
					got, want := FisherExact(a, b, c, d), fisherBig(a, b, c, d)
					if !relClose(got, want, 1e-12) {
						t.Errorf("FisherExact(%d,%d,%d,%d) = %.17g, big reference %.17g", a, b, c, d, got, want)
					}
				}
			}
		}
	}
}

// weightedTables draws tables shaped like AnalyzePlatformDiff's: each
// column is 200,000 pseudo-counts split by a category's share in
// (0, 0.6). Half the pairs are independent shares; the other half put
// the Windows share within ±6 sd of the Android one, so the p-values
// cover the range where Bonferroni decisions are made.
func weightedTables(n int) [][4]int {
	const pseudo = 200000
	rng := rand.New(rand.NewSource(7))
	out := make([][4]int, 0, n)
	for i := 0; i < n; i++ {
		sA := 0.6 * (1 - rng.Float64()) // (0, 0.6]
		sW := 0.6 * (1 - rng.Float64())
		if i%2 == 1 {
			sd := math.Sqrt(2 * sA * (1 - sA) / pseudo)
			sW = min(max(sA+(12*rng.Float64()-6)*sd, 1e-6), 0.6)
		}
		a, b := int(sA*pseudo), int(sW*pseudo)
		out = append(out, [4]int{a, b, pseudo - a, pseudo - b})
	}
	return out
}

func TestFisherExactWeightedTablesMatchBigAndOracle(t *testing.T) {
	// The big reference walks ~10^5 terms per table (~40 ms), so the
	// tables run as parallel subtests.
	for _, tb := range weightedTables(50) {
		a, b, c, d := tb[0], tb[1], tb[2], tb[3]
		t.Run(fmt.Sprint(tb), func(t *testing.T) {
			t.Parallel()
			got := FisherExact(a, b, c, d)
			want := fisherBig(a, b, c, d)
			oracle := fisherLogGammaOracle(a, b, c, d)
			if !relClose(got, want, 1e-12) {
				t.Errorf("FisherExact = %.17g, big reference %.17g", got, want)
			}
			if !relClose(got, oracle, 1e-8) {
				t.Errorf("FisherExact = %.17g, log-gamma oracle %.17g", got, oracle)
			}
			for k := 1; k <= 80; k++ {
				alpha := BonferroniAlpha(0.05, k)
				if (got < alpha) != (oracle < alpha) {
					t.Errorf("FisherExact = %.17g and oracle %.17g decide differently at alpha/%d", got, oracle, k)
				}
			}
		})
	}
}

func TestBonferroniAlpha(t *testing.T) {
	if got := BonferroniAlpha(0.05, 10); got != 0.005 {
		t.Errorf("Bonferroni = %v, want 0.005", got)
	}
	if got := BonferroniAlpha(0.05, 0); got != 0.05 {
		t.Errorf("Bonferroni m=0 = %v, want 0.05", got)
	}
}

func TestProportionDiffScore(t *testing.T) {
	cases := []struct {
		a, w, want float64
	}{
		{100, 50, 0.5},
		{50, 100, -0.5},
		{10, 10, 0},
		{0, 0, 0},
		{10, 0, 1},
		{0, 10, -1},
	}
	for _, c := range cases {
		if got := ProportionDiffScore(c.a, c.w); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("ProportionDiffScore(%v,%v) = %v, want %v", c.a, c.w, got, c.want)
		}
	}
}

func TestProportionDiffScoreBounds(t *testing.T) {
	f := func(a, w uint16) bool {
		s := ProportionDiffScore(float64(a), float64(w))
		return s >= -1 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIQRFencesAndOutliers(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 100}
	flags := IQROutliers(xs, 1.5)
	if !flags[5] {
		t.Error("100 should be an outlier")
	}
	for i := 0; i < 5; i++ {
		if flags[i] {
			t.Errorf("xs[%d] should not be an outlier", i)
		}
	}
}

func TestMAD(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 4, 6, 9}
	if got := MAD(xs); got != 1 {
		t.Errorf("MAD = %v, want 1", got)
	}
	if !math.IsNaN(MAD(nil)) {
		t.Error("MAD(nil) should be NaN")
	}
}

func TestMADOutliers(t *testing.T) {
	xs := []float64{1, 2, 3, 2, 1, 2, 3, 2, 1000}
	flags := MADOutliers(xs, 3.5)
	if !flags[8] {
		t.Error("1000 should be flagged")
	}
	for i := 0; i < 8; i++ {
		if flags[i] {
			t.Errorf("xs[%d] wrongly flagged", i)
		}
	}
}

func TestMADOutliersZeroMAD(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 7}
	flags := MADOutliers(xs, 3.5)
	if !flags[4] {
		t.Error("value differing from constant bulk should be flagged")
	}
	if flags[0] {
		t.Error("median value should not be flagged")
	}
}

func TestPercentIntersection(t *testing.T) {
	a := []string{"x", "y", "z"}
	b := []string{"y", "z", "w"}
	if got := PercentIntersection(a, b); !almostEqual(got, 2.0/3.0, 1e-12) {
		t.Errorf("PercentIntersection = %v, want 2/3", got)
	}
	if got := PercentIntersection(nil, nil); got != 1 {
		t.Errorf("empty-empty = %v, want 1", got)
	}
	if got := PercentIntersection(a, nil); got != 0 {
		t.Errorf("empty-one-side = %v, want 0", got)
	}
	// Duplicates collapse.
	if got := PercentIntersection([]string{"x", "x"}, []string{"x"}); got != 1 {
		t.Errorf("dup collapse = %v, want 1", got)
	}
}

func TestPercentIntersectionSymmetric(t *testing.T) {
	f := func(seedA, seedB uint8) bool {
		mk := func(seed uint8) []string {
			rng := rand.New(rand.NewSource(int64(seed)))
			n := rng.Intn(10)
			out := make([]string, n)
			for i := range out {
				out[i] = string(rune('a' + rng.Intn(6)))
			}
			return out
		}
		a, b := mk(seedA), mk(seedB)
		return PercentIntersection(a, b) == PercentIntersection(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCumulativeSortedDesc(t *testing.T) {
	got := CumulativeSortedDesc([]float64{1, 3, 2})
	want := []float64{3, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CumulativeSortedDesc = %v, want %v", got, want)
		}
	}
	// Result must be non-decreasing for non-negative inputs.
	if !sort.Float64sAreSorted(got) {
		t.Error("cumulative sum of non-negative values should be sorted")
	}
}

func TestRanksPermutationProperty(t *testing.T) {
	// Ranks of distinct values are a permutation of 1..n.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		xs := rng.Perm(n)
		fs := make([]float64, n)
		for i, v := range xs {
			fs[i] = float64(v)
		}
		ranks := Ranks(fs)
		seen := make(map[float64]bool)
		for _, r := range ranks {
			if r < 1 || r > float64(n) || seen[r] {
				return false
			}
			seen[r] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// ID-based intersection kernel equivalence.

func TestPercentIntersectionIDsMatchesStrings(t *testing.T) {
	// Deterministic xorshift so failures reproduce.
	rng := uint64(42)
	next := func(n int) int {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return int((rng * 2685821657736338717) >> 33 % uint64(n))
	}
	sa, sb := keyset.New(0), keyset.New(0) // undersized: must grow transparently
	for trial := 0; trial < 500; trial++ {
		a := make([]string, next(30))
		b := make([]string, next(30))
		ids := map[string]int32{}
		idOf := func(s string) int32 {
			id, ok := ids[s]
			if !ok {
				id = int32(len(ids))
				ids[s] = id
			}
			return id
		}
		ai := make([]int32, len(a))
		bi := make([]int32, len(b))
		for i := range a {
			a[i] = "k" + strconv.Itoa(next(12)) // heavy duplicates
			ai[i] = idOf(a[i])
		}
		for i := range b {
			b[i] = "k" + strconv.Itoa(next(12))
			bi[i] = idOf(b[i])
		}
		want := PercentIntersection(a, b)
		got := PercentIntersectionIDs(ai, bi, sa, sb)
		if got != want {
			t.Fatalf("trial %d: IDs = %v, strings = %v (a=%v b=%v)", trial, got, want, a, b)
		}
	}
}

func TestPercentIntersectionIDsEdgeCases(t *testing.T) {
	if got := PercentIntersectionIDs[int32](nil, nil, nil, nil); got != 1 {
		t.Errorf("both empty = %v, want 1", got)
	}
	if got := PercentIntersectionIDs([]int32{1, 2}, nil, nil, nil); got != 0 {
		t.Errorf("one empty = %v, want 0", got)
	}
	// Duplicates collapse before the ratio, exactly like the string path.
	if got := PercentIntersectionIDs([]int32{1, 1, 1, 2}, []int32{1}, nil, nil); got != 0.5 {
		t.Errorf("duplicate collapse = %v, want 0.5", got)
	}
}
