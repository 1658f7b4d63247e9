package topn

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// kv mirrors the assembly's rank-list entries: ordered by value
// descending with the key as ascending tie-break — a strict total
// order as long as keys are unique.
type kv struct {
	key   string
	value float64
}

func kvCmp(a, b kv) int {
	switch {
	case a.value > b.value:
		return -1
	case a.value < b.value:
		return 1
	}
	return strings.Compare(a.key, b.key)
}

// reference is the sort-then-truncate path the selector must match
// exactly.
func reference(items []kv, k int) []kv {
	out := append([]kv(nil), items...)
	sort.Slice(out, func(i, j int) bool { return kvCmp(out[i], out[j]) < 0 })
	if k < 0 {
		k = 0
	}
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}

// TestSelectorMatchesSortTruncate is the exactness property behind the
// streaming assembly's byte-identical guarantee: for random inputs
// with many duplicate values (forcing the key tie-break), the selector
// must agree with full sort + truncate element for element.
func TestSelectorMatchesSortTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		k := rng.Intn(30)
		items := make([]kv, n)
		for i := range items {
			// A tiny value universe makes duplicate values — and
			// therefore domain tie-breaks — the common case.
			items[i] = kv{key: fmt.Sprintf("site%03d", i), value: float64(rng.Intn(8))}
		}
		sel := New(k, kvCmp)
		for _, it := range items {
			sel.Offer(it)
		}
		got := sel.AppendSorted(nil)
		want := reference(items, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d k=%d): len %d, want %d", trial, n, k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d k=%d): row %d = %+v, want %+v", trial, n, k, i, got[i], want[i])
			}
		}
	}
}

func TestSelectorAllEqualValues(t *testing.T) {
	// Every value identical: the order is decided purely by the key
	// tie-break, the worst case for heap comparisons.
	sel := New(5, kvCmp)
	var items []kv
	for i := 19; i >= 0; i-- {
		it := kv{key: fmt.Sprintf("k%02d", i), value: 7}
		items = append(items, it)
		sel.Offer(it)
	}
	got := sel.AppendSorted(nil)
	want := reference(items, 5)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSelectorZeroAndNegativeK(t *testing.T) {
	for _, k := range []int{0, -3} {
		sel := New(k, kvCmp)
		sel.Offer(kv{"a", 1})
		if sel.Len() != 0 {
			t.Fatalf("k=%d retained %d items", k, sel.Len())
		}
		if got := sel.AppendSorted(nil); len(got) != 0 {
			t.Fatalf("k=%d sorted output has %d items", k, len(got))
		}
	}
}

func TestSelectorResetReusesBacking(t *testing.T) {
	sel := New(64, kvCmp)
	for i := 0; i < 100; i++ {
		sel.Offer(kv{fmt.Sprintf("k%d", i), float64(i)})
	}
	_ = sel.AppendSorted(nil)
	before := cap(sel.h)
	sel.Reset(32) // smaller capacity must reuse the existing array
	if cap(sel.h) != before {
		t.Fatalf("Reset(32) reallocated: cap %d, want %d", cap(sel.h), before)
	}
	if sel.Len() != 0 {
		t.Fatalf("Reset left %d items", sel.Len())
	}
	// And the reused selector still selects exactly.
	var items []kv
	for i := 0; i < 80; i++ {
		it := kv{fmt.Sprintf("r%02d", i), float64(i % 5)}
		items = append(items, it)
		sel.Offer(it)
	}
	got := sel.AppendSorted(nil)
	want := reference(items, 32)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after reset: row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestAppendSortedAppends(t *testing.T) {
	sel := New(2, kvCmp)
	sel.Offer(kv{"b", 2})
	sel.Offer(kv{"a", 1})
	dst := []kv{{"existing", 99}}
	dst = sel.AppendSorted(dst)
	if len(dst) != 3 || dst[0].key != "existing" || dst[1].key != "b" || dst[2].key != "a" {
		t.Fatalf("append result %+v", dst)
	}
	if sel.Len() != 0 {
		t.Fatal("selector not emptied by AppendSorted")
	}
}

// TestAppendSortedMostlyTied: when nearly every value ties, the order
// is decided by the key, and the unstable sort inside AppendSorted
// must still reproduce sort-then-truncate exactly, for every k from
// empty to past the input's length, whatever order the items arrive
// in.
func TestAppendSortedMostlyTied(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := make([]kv, 500)
	for i := range items {
		v := 3.0
		if i%50 == 0 {
			v = float64(rng.Intn(6))
		}
		items[i] = kv{key: fmt.Sprintf("d%04d.example", rng.Intn(1e4)*1e3+i), value: v}
	}
	for _, k := range []int{0, 1, 7, 64, 499, 500, 600} {
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		sel := New(k, kvCmp)
		for _, it := range items {
			sel.Offer(it)
		}
		got := sel.AppendSorted(nil)
		want := reference(items, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: len %d, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d: row %d = %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
}
