package stats

import "math"

// FisherExact computes the two-sided p-value of Fisher's exact test on
// the 2x2 contingency table
//
//	        group1  group2
//	hit       a       b
//	miss      c       d
//
// The two-sided p-value sums the probabilities of all tables, with the
// same margins, that are no more probable than the observed table (the
// standard "sum of small p" definition, with a 1e-7 relative tolerance
// for ties).
//
// The hypergeometric terms are never evaluated absolutely. The walk
// starts at the mode with relative weight 1 and moves outward by the
// closed-form ratio of consecutive terms,
//
//	f(x+1)/f(x) = (r1-x)(c1-x) / ((x+1)(r2-c1+x+1)),
//
// so each term costs one multiply and one divide, and the p-value is the
// small-term sum over the walked total. The distribution is unimodal, so
// a side stops once its terms underflow or, in the tail, fall below
// 2^-60 of the running tail sum: huge weighted-count tables cost O(sd)
// terms, not O(support).
func FisherExact(a, b, c, d int) float64 {
	if a < 0 || b < 0 || c < 0 || d < 0 {
		return math.NaN()
	}
	r1, r2, c1 := a+b, c+d, a+c // hits, misses, group1
	n := r1 + r2
	if n == 0 {
		return 1
	}
	lo, hi := max(0, c1-r2), min(c1, r1) // support of a given the margins
	mode := min(max(int(float64(c1+1)*float64(r1+1)/float64(n+2)), lo), hi)
	// up(x) = f(x+1)/f(x); down(x) = f(x-1)/f(x).
	up := func(x int) float64 {
		return float64(r1-x) * float64(c1-x) / (float64(x+1) * float64(r2-c1+x+1))
	}
	down := func(x int) float64 {
		return float64(x) * float64(r2-c1+x) / (float64(r1-x+1) * float64(c1-x+1))
	}

	// The observed cell's weight, by the same products the sweep below
	// repeats, so the sweep meets it bit for bit.
	obs := 1.0
	for x := mode; x < a && obs > 0; x++ {
		obs *= up(x)
	}
	for x := mode; x > a && obs > 0; x-- {
		obs *= down(x)
	}
	if obs == 0 {
		return 0 // underflowed: the observed table is ~1e-308 of the mode's or less
	}
	tail := obs * (1 + 1e-7)

	total, p := 1.0, 0.0
	if 1 <= tail {
		p = 1
	}
	sweep := func(x, end, step int, ratio func(int) float64) {
		for t := 1.0; x != end; x += step {
			t *= ratio(x)
			if t == 0 {
				return
			}
			total += t
			if t <= tail {
				p += t
				if t < 0x1p-60*p {
					return
				}
			}
		}
	}
	sweep(mode, lo, -1, down)
	sweep(mode, hi, +1, up)
	return min(p/total, 1)
}

// BonferroniAlpha returns the per-test significance threshold for a
// family-wise error rate alpha over m comparisons. m <= 0 yields alpha
// unchanged.
func BonferroniAlpha(alpha float64, m int) float64 {
	if m <= 0 {
		return alpha
	}
	return alpha / float64(m)
}

// ProportionDiffScore returns the paper's normalized platform-difference
// metric (Section 4.3):
//
//	(A - W) / max(A, W)
//
// where A and W are weighted traffic volumes for Android and Windows.
// The result lies in [-1, 1]: positive means mobile-leaning, negative
// desktop-leaning. If both are zero the score is 0.
func ProportionDiffScore(android, windows float64) float64 {
	max := android
	if windows > max {
		max = windows
	}
	if max == 0 {
		return 0
	}
	return (android - windows) / max
}
