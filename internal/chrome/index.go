package chrome

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"wwb/internal/parallel"
	"wwb/internal/psl"
	"wwb/internal/world"
)

// KeyID is a dense identifier for one merged PSL site key within a
// dataset's key universe. IDs are assigned in lexicographic key order,
// so sorting IDs numerically equals sorting keys lexically — the
// property the analyses rely on to keep ID-path output byte-identical
// to the historical string path.
type KeyID int32

// KeyIndex interns every merged site key of a dataset exactly once.
// Each distinct domain's PSL parse happens once per index build —
// 51.8K parses for the 2.9M rank-list entries of the default scale —
// and the hot comparison kernels (weighted RBO, percent intersection,
// endemicity rank maps) operate on dense int32 IDs with O(1)-reset
// scratch buffers instead of hashing strings into fresh maps for each
// of the ~990 country pairs.
//
// Every per-cell view is built with the index, as a pass over
// integers, and is immutable from then on; only the per-cell rank map
// behind Rank is built on first use. A shard view's index shares the
// parent's key universe and views (see Dataset.ShardView). A KeyIndex
// is safe for concurrent use.
type KeyIndex struct {
	keys  []string              // KeyID → key, lexicographically sorted
	cells map[CellKey]*cellKeys // one view per rank list
}

// cellKeys is the interned view of one cell's rank list: the deduped
// merged keys in rank order plus each key's first-occurrence entry
// position. firstPos is strictly increasing, which makes every TopN
// prefix of the raw list a binary-searchable prefix of ids.
type cellKeys struct {
	ids      []KeyID
	firstPos []int32
	// rankOf is built on first use by Rank for point-lookup callers
	// (the query server); the bulk analyses never pay for it.
	rankOnce sync.Once
	rankOf   map[KeyID]int32
}

// emptyCell is the view of a cell the dataset does not hold.
var emptyCell = &cellKeys{}

// buildIndex interns the key universe of a dataset's rank lists: every
// distinct merged site key, IDs assigned in sorted-key order so the
// numbering is canonical — independent of map iteration order,
// GOMAXPROCS, and which cells exist.
func buildIndex(cells map[CellKey]cell) *KeyIndex {
	return growIndex(&KeyIndex{}, cells)
}

// Index returns the dataset's interned site-key index, building it on
// first use. The build walks every rank list once; all later analyses
// share the result.
//
// The memo is generation-checked: a month append bumps the dataset
// generation and installs an incrementally grown index alongside it
// (see ApplyIncrement), so a pre-append index can never be served. If
// the generations ever disagree — a mutation that bypassed the append
// bookkeeping — the index is rebuilt from scratch, trading time for
// guaranteed freshness.
func (d *Dataset) Index() *KeyIndex {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.index == nil || d.indexGen != d.gen {
		d.index = buildIndex(d.cells)
		d.indexGen = d.gen
	}
	return d.index
}

// growIndex returns old extended with views of the given new cells,
// preserving the canonical invariant that IDs numerically sorted equal
// keys lexically sorted — the property every ID-path analysis relies
// on for byte-identity with a full rebuild. buildIndex is growIndex
// over an empty index.
//
// The new cells' domains are interned first, so each distinct domain
// is parsed into its site key once. One sorted merge then places the
// keys in the existing universe; existing views are remapped by a
// single pass over their IDs (shared untouched when no key is new),
// and the new cells' views are passes over integers.
func growIndex(old *KeyIndex, cells map[CellKey]cell) *KeyIndex {
	order := byText(cells)

	doms, refs := internDomains(order, cells)
	keys, remap, domID := mergeKeys(old.keys, domainKeys(doms))

	nx := &KeyIndex{keys: keys, cells: make(map[CellKey]*cellKeys, len(old.cells)+len(order))}
	for k, c := range old.cells {
		if remap != nil {
			// firstPos is untouched by an ID renumbering; the ids slice
			// is rebuilt rather than mutated so any reader still holding
			// the old index sees a consistent (if stale) view.
			nc := &cellKeys{ids: make([]KeyID, len(c.ids)), firstPos: c.firstPos}
			for i, id := range c.ids {
				nc.ids[i] = remap[id]
			}
			c = nc
		}
		nx.cells[k] = c
	}

	// All views share two backing blocks sized for the no-duplicates
	// worst case.
	vs := newViewScratch(len(keys))
	idBlock := make([]KeyID, 0, len(refs))
	posBlock := make([]int32, 0, len(refs))
	for _, k := range order {
		n := len(cells[k.key].list)
		nx.cells[k.key] = vs.view(&idBlock, &posBlock, refs[:n], domID)
		refs = refs[n:]
	}
	return nx
}

// domainKeys parses each domain's site key: one PSL parse per distinct
// domain, fanned out across CPUs.
func domainKeys(doms []string) []string {
	keys := make([]string, len(doms))
	parallel.ForEach(len(doms), func(i int) { keys[i] = psl.Default.SiteKey(doms[i]) })
	return keys
}

// viewScratch builds cell views one cell at a time. Dedup is by
// generation stamp: seen[id] == gen marks a key already taken in the
// current cell, so no per-cell set is allocated or cleared.
type viewScratch struct {
	seen []int32
	gen  int32
	refs []int32 // a decoding worker's domain refs for the current cell
}

func newViewScratch(numKeys int) *viewScratch {
	return &viewScratch{seen: make([]int32, numKeys)}
}

// view builds the view of one cell whose entries reference the domains
// refs, whose key IDs domID holds: the deduped IDs in rank order and
// each one's first position. Both slices are appended to *ids and *pos,
// whose capacity must hold len(refs) more, and returned clamped to the
// cell — the one view builder that assembly, append and snapshot
// decode share.
func (vs *viewScratch) view(ids *[]KeyID, pos *[]int32, refs []int32, domID []KeyID) *cellKeys {
	vs.gen++
	gen, seen, is, ps := vs.gen, vs.seen, *ids, *pos
	start := len(is)
	for p, di := range refs {
		id := domID[di]
		if seen[id] == gen {
			continue
		}
		seen[id] = gen
		is = append(is, id)
		ps = append(ps, int32(p))
	}
	*ids, *pos = is, ps
	end := len(is)
	return &cellKeys{ids: is[start:end:end], firstPos: ps[start:end:end]}
}

// internDomains interns the domains of the given cells' rank lists in
// cell order: doms holds each distinct domain once, in first-seen
// order, and refs every entry's index into doms, cell after cell — one
// map lookup per entry, and no string work after it.
func internDomains(order []keyText[CellKey], cells map[CellKey]cell) (doms []string, refs []int32) {
	total := 0
	for _, k := range order {
		total += len(cells[k.key].list)
	}
	idx := make(map[string]int32)
	refs = make([]int32, 0, total)
	for _, k := range order {
		for _, e := range cells[k.key].list {
			di, ok := idx[e.Domain]
			if !ok {
				di = int32(len(doms))
				idx[e.Domain] = di
				doms = append(doms, e.Domain)
			}
			refs = append(refs, di)
		}
	}
	return doms, refs
}

// mergeKeys merges the site keys of new domains into the sorted
// universe old: it sorts the domains by key and walks them alongside
// old once. It returns the merged universe, each old ID's new ID, and
// each domain's ID. When no key is new, the universe is old itself and
// remap is nil: every ID keeps its value.
func mergeKeys(old, domKeys []string) (keys []string, remap, domID []KeyID) {
	byKey := make([]int32, len(domKeys))
	for i := range byKey {
		byKey[i] = int32(i)
	}
	slices.SortFunc(byKey, func(a, b int32) int { return strings.Compare(domKeys[a], domKeys[b]) })

	keys = make([]string, 0, len(old)+len(domKeys))
	remap = make([]KeyID, len(old))
	domID = make([]KeyID, len(domKeys))
	i := 0
	take := func() { // moves old[i] into the merged universe
		remap[i] = KeyID(len(keys))
		keys = append(keys, old[i])
		i++
	}
	for _, di := range byKey {
		k := domKeys[di]
		for i < len(old) && old[i] < k {
			take()
		}
		if i < len(old) && old[i] == k {
			take()
		} else if len(keys) == 0 || keys[len(keys)-1] != k {
			keys = append(keys, k) // new, and not already added for another domain
		}
		domID[di] = KeyID(len(keys) - 1)
	}
	for i < len(old) {
		take()
	}
	if len(keys) == len(old) {
		return old, nil, domID
	}
	return keys, remap, domID
}

// NumKeys returns the size of the interned key universe; valid KeyIDs
// are [0, NumKeys).
func (ix *KeyIndex) NumKeys() int { return len(ix.keys) }

// Key returns the site key for a dense ID. IDs outside [0, NumKeys)
// yield the empty string.
func (ix *KeyIndex) Key(id KeyID) string {
	if id < 0 || int(id) >= len(ix.keys) {
		return ""
	}
	return ix.keys[id]
}

// ID returns the dense ID for a site key and whether the key exists in
// the dataset's universe, by binary search over the sorted universe.
func (ix *KeyIndex) ID(key string) (KeyID, bool) {
	i := sort.SearchStrings(ix.keys, key)
	if i < len(ix.keys) && ix.keys[i] == key {
		return KeyID(i), true
	}
	return 0, false
}

// cell returns the interned view of one cell. Cells absent from the
// dataset yield an empty view.
func (ix *KeyIndex) cell(country string, p world.Platform, m world.Metric, month world.Month) *cellKeys {
	if c, ok := ix.cells[CellKey{country, p, m, month}]; ok {
		return c
	}
	return emptyCell
}

// MergedIDs returns a cell's deduped merged key IDs in rank order —
// the ID-space equivalent of ranklist.MergedKeys over the full list.
// The returned slice is shared and must not be mutated.
func (ix *KeyIndex) MergedIDs(country string, p world.Platform, m world.Metric, month world.Month) []KeyID {
	return ix.cell(country, p, m, month).ids
}

// MergedIDsTopN returns the merged key IDs of the cell's TopN(n)
// prefix — the ID-space equivalent of ranklist.MergedKeys(l.TopN(n)).
// Because dedup keeps first occurrences in order, that is exactly the
// prefix of MergedIDs whose first occurrences fall before n, found by
// binary search. The returned slice is shared and must not be mutated.
func (ix *KeyIndex) MergedIDsTopN(country string, p world.Platform, m world.Metric, month world.Month, n int) []KeyID {
	c := ix.cell(country, p, m, month)
	if n < 0 {
		n = 0
	}
	cut := sort.Search(len(c.firstPos), func(i int) bool { return c.firstPos[i] >= int32(n) })
	return c.ids[:cut]
}

// KeyRankIDs returns a cell's merged key IDs alongside each key's
// first-occurrence entry position (0-based; best 1-based rank is
// pos+1) — the ID-space equivalent of ranklist.KeyRanks. The returned
// slices are shared and must not be mutated.
func (ix *KeyIndex) KeyRankIDs(country string, p world.Platform, m world.Metric, month world.Month) (ids []KeyID, firstPos []int32) {
	c := ix.cell(country, p, m, month)
	return c.ids, c.firstPos
}

// Rank returns the best 1-based rank of a key in a cell's list, or 0
// when absent — a point lookup for query serving. The per-cell rank
// map is built once on first use and memoized.
func (ix *KeyIndex) Rank(country string, p world.Platform, m world.Metric, month world.Month, id KeyID) int {
	c := ix.cell(country, p, m, month)
	c.rankOnce.Do(func() {
		c.rankOf = make(map[KeyID]int32, len(c.ids))
		for k, cid := range c.ids {
			c.rankOf[cid] = c.firstPos[k] + 1
		}
	})
	return int(c.rankOf[id])
}
