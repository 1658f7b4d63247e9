// Package topn provides an exact bounded-memory top-K selector: feed
// it any number of items and it retains only the K best under a
// caller-supplied strict total order, in O(K) memory and O(log K) per
// offer. For a strict total order (no two distinct items compare
// equal) the selected set and its sorted output are exactly
// the ones a full sort-then-truncate would produce — there is no
// sketching or approximation — which is what lets the dataset
// assembly replace per-cell full sorts without changing a byte of
// output.
package topn

import "slices"

// Selector retains the k best items seen so far under the order cmp.
// The zero value is not usable; construct with New.
type Selector[T any] struct {
	// cmp orders items best first: negative when a ranks strictly
	// ahead of b in the output, positive when strictly behind. It must
	// be a strict total order over the offered items — zero only for
	// an item compared with itself — for the sorted output to be
	// unique.
	cmp func(a, b T) int
	k   int
	// h is a heap with the *worst* retained item at the root, so a
	// new item only needs to beat h[0] to enter.
	h []T
}

// New returns a selector retaining the best k items under cmp. k <= 0
// yields a selector that retains nothing (mirroring RankList.TopN's
// clamp).
func New[T any](k int, cmp func(a, b T) int) *Selector[T] {
	s := &Selector[T]{cmp: cmp}
	s.Reset(k)
	return s
}

// Reset empties the selector and sets a new capacity, reusing the
// backing array when it is large enough — the pooling hook for
// per-worker scratch reuse.
func (s *Selector[T]) Reset(k int) {
	if k < 0 {
		k = 0
	}
	s.k = k
	if cap(s.h) < k {
		s.h = make([]T, 0, k)
	} else {
		var zero T
		for i := range s.h {
			s.h[i] = zero // drop references so pooled selectors don't pin memory
		}
		s.h = s.h[:0]
	}
}

// Len returns the number of items currently retained (≤ k).
func (s *Selector[T]) Len() int { return len(s.h) }

// Offer considers one item, keeping it iff it belongs in the top k
// seen so far.
func (s *Selector[T]) Offer(v T) {
	if s.k <= 0 {
		return
	}
	if len(s.h) < s.k {
		s.h = append(s.h, v)
		s.siftUp(len(s.h) - 1)
		return
	}
	// Full: v enters only by beating the current worst at the root.
	if s.cmp(v, s.h[0]) < 0 {
		s.h[0] = v
		s.siftDown(0)
	}
}

// AppendSorted appends the retained items to dst in best-first order
// and returns the extended slice. The selector is left empty (its
// capacity is retained). The sort need not be stable: under a strict
// total order the sorted output is unique.
func (s *Selector[T]) AppendSorted(dst []T) []T {
	base := len(dst)
	dst = append(dst, s.h...)
	slices.SortFunc(dst[base:], s.cmp)
	var zero T
	for i := range s.h {
		s.h[i] = zero
	}
	s.h = s.h[:0]
	return dst
}

// worse reports whether a ranks strictly behind b — the heap order.
func (s *Selector[T]) worse(a, b T) bool { return s.cmp(a, b) > 0 }

func (s *Selector[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.worse(s.h[i], s.h[parent]) {
			return
		}
		s.h[i], s.h[parent] = s.h[parent], s.h[i]
		i = parent
	}
}

func (s *Selector[T]) siftDown(i int) {
	n := len(s.h)
	for {
		worst := i
		if l := 2*i + 1; l < n && s.worse(s.h[l], s.h[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < n && s.worse(s.h[r], s.h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		s.h[i], s.h[worst] = s.h[worst], s.h[i]
		i = worst
	}
}
