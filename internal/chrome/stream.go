package chrome

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wwb/internal/metrics"
	"wwb/internal/parallel"
	"wwb/internal/psl"
	"wwb/internal/telemetry"
	"wwb/internal/topn"
	"wwb/internal/world"
)

// The streaming assembly pipeline. The reference pipeline the tests
// hold it to (oracle_test.go) materialises a full []SiteStats per
// cell, sorts it twice, and buffers every cell's result before
// merging — O(sites) per cell and O(total results) at the fan-in,
// which caps the universe scale a machine can assemble. This path
// holds, per in-flight cell, only:
//
//   - two bounded top-N selectors (O(TopN) each, pooled),
//   - exact cell totals (O(1), accumulated inline by SampleCellVisit),
//   - for DistMonth cells, a pooled sparse vector of interned
//     (key-index, loads, time) contributions — O(candidates of one
//     country), freed back to the pool as soon as the cell merges.
//
// Results flow through parallel.StreamCtx, so at most 2×GOMAXPROCS
// cell results exist at once and the fan-in consumes them in canonical
// job order on one goroutine. The global distribution accumulators are
// dense float64 vectors indexed by interned u32 site keys; each site
// key receives exactly one contribution per cell, applied in job
// order — the same documented summation order as the reference map
// merge, which (contributions being integer-valued floats well below
// 2^53) makes the two pipelines byte-identical, not merely close.

// Streaming-stage metrics: select is worker-side CPU (sampling +
// bounded selection) summed across cells; merge is consumer-side
// fan-in. The gauge records the peak Go heap observed during the most
// recent assembly — the number the huge-scale memory budget in CI is
// pinned against.
var mAssembleHeapPeak = metrics.Default.Gauge(
	"wwb_assemble_heap_peak_bytes",
	"Peak heap (runtime HeapAlloc) sampled during the most recent dataset assembly.")

// AssemblePeakHeapBytes reports the peak heap sampled during the most
// recent AssembleCtx call (either pipeline). It is an observability
// reading — sampled every few milliseconds, not exact — intended for
// memory-regression smoke checks and the CLIs' stage logs.
func AssemblePeakHeapBytes() int64 { return mAssembleHeapPeak.Value() }

// watchHeapPeak starts a sampler that tracks the peak heap for the
// duration of one assembly, returning its stop function. Sampling is
// observation-only: nothing in the pipeline reads the gauge back.
func watchHeapPeak() (stop func()) {
	readHeap := func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	peak := readHeap()
	mAssembleHeapPeak.Set(peak)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(25 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if h := readHeap(); h > peak {
					peak = h
					mAssembleHeapPeak.Set(peak)
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		if h := readHeap(); h > peak {
			mAssembleHeapPeak.Set(h)
		}
	}
}

// distKeyIndex interns every merged PSL site key the universe can
// produce into a dense u32, assigned in site-generation order. The
// merged key of a site is PSL-derived from the domain it surfaces
// under, which for MultiTLD sites varies by country. Each country gets
// a row aligned with its candidate list, so the per-cell hot path
// resolves a sampled site's key index by its candidate position and
// emits (u32, loads, time) triples only.
type distKeyIndex struct {
	n    int
	rows map[string][]uint32 // country code -> index per candidate
}

func buildDistKeyIndex(w *world.World) *distKeyIndex {
	countries := w.Countries()
	di := &distKeyIndex{rows: make(map[string][]uint32, len(countries))}
	byKey := make(map[string]uint32, len(w.Sites()))
	intern := func(key string) uint32 {
		if idx, ok := byKey[key]; ok {
			return idx
		}
		idx := uint32(di.n)
		byKey[key] = idx
		di.n++
		return idx
	}
	bySite := make(map[*world.Site]uint32, len(w.Sites()))
	multi := make(map[*world.Site][]uint32)
	for _, s := range w.Sites() {
		if !s.MultiTLD {
			bySite[s] = intern(psl.Default.SiteKey(s.Domain()))
			continue
		}
		row := make([]uint32, len(countries))
		for i, c := range countries {
			row[i] = intern(psl.Default.SiteKey(s.DomainIn(c)))
		}
		multi[s] = row
	}
	for ci, c := range countries {
		cands := w.Candidates(c.Code)
		row := make([]uint32, len(cands))
		for k, cand := range cands {
			if m, ok := multi[cand.Site]; ok {
				row[k] = m[ci]
			} else {
				row[k] = bySite[cand.Site]
			}
		}
		di.rows[c.Code] = row
	}
	return di
}

// distEntry is one site's contribution to the global distribution
// accumulators: a dense key index instead of a site-key string.
type distEntry struct {
	idx           uint32
	loads, timeMS float64
}

// streamCellResult is what one streamed cell hands the fan-in: its
// two ranked cells, one per metric, plus the sparse distribution shard.
type streamCellResult struct {
	loads, time cell
	// dist is the cell's pooled distribution shard (nil unless the
	// cell's month is DistMonth). Ownership travels with the result:
	// the fan-in returns it to the pool after merging — recycling it
	// any earlier would let another in-flight cell scribble over it.
	dist *[]distEntry
}

// cellScratch is the pooled per-worker scratch: the two selectors'
// heap backing arrays survive from cell to cell, so steady-state
// assembly allocates only the output lists themselves.
type cellScratch struct {
	selLoads, selTime *topn.Selector[Entry]
}

// entryCmp is the rank order shared by every list: value descending,
// domain ascending on ties. Domains are unique within a cell, so this
// is a strict total order and bounded selection is exact (see
// internal/topn).
func entryCmp(a, b Entry) int {
	switch {
	case a.Value > b.Value:
		return -1
	case a.Value < b.Value:
		return 1
	}
	return strings.Compare(a.Domain, b.Domain)
}

// assembleStreamCtx is the streaming bounded-memory pipeline.
func assembleStreamCtx(ctx context.Context, w *world.World, tcfg telemetry.Config, opts Options) (*Dataset, error) {
	assembleStart := time.Now()
	ds, jobs := newDataset(w, opts)

	dist, err := runStreamCells(ctx, w, tcfg, opts, jobs, ds.cells)
	if err != nil {
		return nil, err
	}
	ds.dist = dist
	metrics.ObserveStage("chrome.assemble", time.Since(assembleStart))
	return ds, nil
}

// runStreamCells is the streaming engine shared by full assembly and
// incremental month appends: it samples the given jobs through the
// bounded-memory pipeline, writes their cells into the caller's map,
// and returns the global distribution curves of the jobs whose month
// is opts.DistMonth (nil when no job touches DistMonth — an append of
// a non-dist month skips the interning pass entirely). Cells fork
// their RNG streams from the job identity alone, so any subset of the
// canonical job list produces exactly the cells a full run would — the
// property the append-equals-rebuild guarantee rests on.
func runStreamCells(ctx context.Context, w *world.World, tcfg telemetry.Config, opts Options, jobs []cellJob, cells map[CellKey]cell) (map[curveKey]*DistCurve, error) {
	root := world.NewRNG(opts.Seed)

	needDist := false
	for _, j := range jobs {
		if j.month == opts.DistMonth {
			needDist = true
			break
		}
	}
	var di *distKeyIndex
	var accLoads, accTime map[world.Platform][]float64
	if needDist {
		indexStart := time.Now()
		di = buildDistKeyIndex(w)
		metrics.ObserveStage("chrome.stream.index", time.Since(indexStart))

		// Dense global distribution accumulators, one pair per platform.
		accLoads = make(map[world.Platform][]float64, len(world.Platforms))
		accTime = make(map[world.Platform][]float64, len(world.Platforms))
		for _, p := range world.Platforms {
			accLoads[p] = make([]float64, di.n)
			accTime[p] = make([]float64, di.n)
		}
	}

	scratchPool := sync.Pool{New: func() any {
		return &cellScratch{
			selLoads: topn.New(opts.TopN, entryCmp),
			selTime:  topn.New(opts.TopN, entryCmp),
		}
	}}
	distPool := sync.Pool{New: func() any { return new([]distEntry) }}

	// Wall-clock totals for the stage table: select accumulates
	// worker-side time across cells (it exceeds elapsed time when
	// workers overlap), merge is single-goroutine fan-in time.
	var selectNanos, mergeNanos atomicNanos

	produce := func(_ context.Context, i int) (streamCellResult, error) {
		start := time.Now()
		defer func() { selectNanos.add(time.Since(start)) }()
		j := jobs[i]
		sc := scratchPool.Get().(*cellScratch)
		sc.selLoads.Reset(opts.TopN)
		sc.selTime.Reset(opts.TopN)

		var dist *[]distEntry
		var keyIdx []uint32
		isDist := j.month == opts.DistMonth
		if isDist {
			keyIdx = di.rows[j.country]
			dist = distPool.Get().(*[]distEntry)
			if cap(*dist) == 0 {
				*dist = make([]distEntry, 0, len(keyIdx))
			}
			*dist = (*dist)[:0]
		}

		tot := telemetry.SampleCellVisit(cellRNG(root, j), w, tcfg, telemetry.Cell{
			Country: j.country, Platform: j.platform, Month: j.month,
		}, func(pos int, s telemetry.SiteStats) {
			if s.Clients >= opts.PrivacyThreshold {
				sc.selLoads.Offer(Entry{Domain: s.Domain, Value: float64(s.Loads)})
				sc.selTime.Offer(Entry{Domain: s.Domain, Value: float64(s.TimeMS)})
			}
			if isDist {
				*dist = append(*dist, distEntry{
					idx:    keyIdx[pos],
					loads:  float64(s.Loads),
					timeMS: float64(s.TimeMS),
				})
			}
		})

		// Coverage from the streamed exact totals: the numerator is
		// summed over the ranked list in rank order, matching the
		// reference pipeline's arithmetic operation for operation.
		res := streamCellResult{
			loads: newCell(sc.selLoads.AppendSorted(make([]Entry, 0, sc.selLoads.Len())), float64(tot.Loads)),
			time:  newCell(sc.selTime.AppendSorted(make([]Entry, 0, sc.selTime.Len())), float64(tot.TimeMS)),
			dist:  dist,
		}
		scratchPool.Put(sc)
		return res, nil
	}

	consume := func(i int, res streamCellResult) error {
		start := time.Now()
		defer func() { mergeNanos.add(time.Since(start)) }()
		j := jobs[i]
		if res.dist != nil {
			al, at := accLoads[j.platform], accTime[j.platform]
			for _, e := range *res.dist {
				al[e.idx] += e.loads
				at[e.idx] += e.timeMS
			}
			distPool.Put(res.dist)
		}
		cells[CellKey{j.country, j.platform, world.PageLoads, j.month}] = res.loads
		cells[CellKey{j.country, j.platform, world.TimeOnPage, j.month}] = res.time
		return nil
	}

	if err := parallel.StreamCtx(ctx, len(jobs), produce, consume); err != nil {
		return nil, err
	}
	metrics.ObserveStage("chrome.stream.select", selectNanos.duration())
	metrics.ObserveStage("chrome.stream.merge", mergeNanos.duration())
	if !needDist {
		return nil, nil
	}

	curveStart := time.Now()
	dist := make(map[curveKey]*DistCurve, len(world.Platforms)*len(world.Metrics))
	for _, p := range world.Platforms {
		// NewDistCurve copies and keeps only positive volumes, so the
		// dense vectors (zeros for never-seen keys) feed it directly.
		dist[curveKey{p, world.PageLoads}] = NewDistCurve(accLoads[p])
		dist[curveKey{p, world.TimeOnPage}] = NewDistCurve(accTime[p])
	}
	metrics.ObserveStage("chrome.stream.curves", time.Since(curveStart))
	return dist, nil
}

// atomicNanos accumulates durations from many goroutines.
type atomicNanos struct{ v atomic.Int64 }

func (a *atomicNanos) add(d time.Duration)     { a.v.Add(int64(d)) }
func (a *atomicNanos) duration() time.Duration { return time.Duration(a.v.Load()) }
