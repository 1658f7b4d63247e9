package chrome

import (
	"wwb/internal/world"
)

// ShardView returns a filtered view of the dataset for fleet serving:
// only the (country, month) cells the keep function claims survive.
// The full country roster, month window, assembly options, and the
// global distribution curves are retained — the curves are
// whole-dataset aggregates that every shard serves identically, and
// the roster is what lets a router reassemble cross-shard answers in
// the canonical country order.
//
// The view shares the kept per-cell slices and the distribution
// curves with the receiver (both are immutable after assembly), so a
// slice costs O(kept cells) map entries, not a copy of the data. It
// shares the receiver's KeyIndex too (built first if need be): the
// view's index holds the receiver's whole key universe and only the
// kept cells' views. A key that only other shards' cells hold
// therefore resolves to an ID that ranks 0 in every kept cell — the
// same empty answer an index over the kept cells alone would give.
func (d *Dataset) ShardView(keep func(country string, month world.Month) bool) *Dataset {
	ix := d.Index()
	out := &Dataset{
		Opts:      d.Opts,
		Countries: d.Countries,
		Months:    d.Months,
		cells:     make(map[CellKey]cell),
		dist:      d.dist,
		index:     &KeyIndex{keys: ix.keys, cells: make(map[CellKey]*cellKeys)}, // generation 0 == indexGen 0
	}
	for k, c := range d.cells {
		if keep(k.Country, k.Month) {
			out.cells[k] = c
			out.index.cells[k] = ix.cells[k] // a fresh index holds a view of every cell
		}
	}
	return out
}

// NumLists reports how many per-cell rank lists the dataset holds —
// for a ShardView, the size of the owned slice. Observability only.
func (d *Dataset) NumLists() int { return len(d.cells) }
