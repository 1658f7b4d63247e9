package chrome

import (
	"context"
	"fmt"
	"time"

	"wwb/internal/metrics"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// Incremental month roll-forward. The real Chrome substrate releases
// monthly, and rebuilding the whole universe to gain one month scales
// with the dataset, not the change. AppendMonthCtx streams only the
// new (country, platform, month) cells through the same bounded-memory
// pipeline full assembly uses and merges them into an existing
// Dataset, with the acceptance bar that the merged dataset is
// byte-identical — snapshot bytes and every served response — to a
// full rebuild whose Options cover the extended window.
//
// Byte-identity holds because nothing a cell produces depends on which
// other cells are assembled: each cell forks its RNG stream from the
// root seed and its own identity, rank lists and coverage are per-cell
// values, the global distribution curves read only DistMonth's cells
// (accumulated in canonical country→platform order, which a
// single-month job list reproduces exactly), and the interned key
// index grows by sorted merge so IDs stay canonical for the merged
// universe. See DESIGN.md §12 for the full argument.

// AppendOptions configures one month append.
type AppendOptions struct {
	// Month is the month to append; it must not already be covered by
	// the dataset.
	Month world.Month
	// RollDist makes the appended month the new DistMonth: the global
	// distribution curves are recomputed from the appended month's
	// full sub-threshold-inclusive telemetry rather than carried
	// forward — carrying them forward would silently serve the old
	// month's curves under the new month's name.
	RollDist bool
	// Workers bounds the sampling goroutines, like Options.Workers.
	// Zero inherits the dataset's assembly-time setting.
	Workers int
}

// Increment is the materialised delta of one month append: everything
// applying the append to a base dataset needs, and exactly what a
// delta snapshot (.wwbd) persists. The zero-month cells of the base
// are never re-derived — an Increment is O(one month), not O(window).
type Increment struct {
	// Month is the appended month; every Lists/Coverage key carries it.
	Month world.Month
	// RollDist records whether this increment moved DistMonth to
	// Month; when set, Dist holds the recomputed curves.
	RollDist bool
	// Opts is the resulting dataset's Options after applying the
	// increment: the base Options with Months extended to the explicit
	// merged window (and DistMonth updated under RollDist). A full
	// rebuild with exactly these Options is the equivalence oracle.
	Opts Options
	// Countries is the base dataset's country list, bound here so an
	// increment can't silently apply to a base with different
	// coverage.
	Countries []string
	// Lists and Coverage hold the appended month's cells, keyed like
	// the dataset's own maps.
	Lists    map[string]RankList
	Coverage map[string]float64
	// Dist holds the recomputed global distribution curves; non-nil
	// exactly when RollDist is set.
	Dist map[string]*DistCurve
}

// AppendMonth is AppendMonthCtx with a background context; like
// Assemble, it panics on the unreachable cancellation path.
func AppendMonth(d *Dataset, w *world.World, tcfg telemetry.Config, aopts AppendOptions) *Increment {
	inc, err := AppendMonthCtx(context.Background(), d, w, tcfg, aopts)
	if err != nil {
		panic("chrome: AppendMonth with background context failed: " + err.Error())
	}
	return inc
}

// AppendMonthCtx samples one new month's cells and merges them into
// the dataset, returning the applied Increment so callers can persist
// it as a delta snapshot. The world and telemetry config must be the
// ones the base was assembled from (the CLIs enforce this through
// snapshot provenance); the dataset's own Options supply the seed,
// threshold, and list depth, so the appended cells are exactly the
// cells a full rebuild would produce.
//
// The append always runs the streaming pipeline regardless of
// Options.LegacyAssembly, and it mutates the dataset in place:
// in-flight readers of the same Dataset would race with the merge, so
// serving processes must instead decode a base+delta chain into a
// fresh Dataset and hot-swap (see internal/fleet).
func AppendMonthCtx(ctx context.Context, d *Dataset, w *world.World, tcfg telemetry.Config, aopts AppendOptions) (*Increment, error) {
	stopHeapWatch := watchHeapPeak()
	defer stopHeapWatch()
	appendStart := time.Now()

	if !world.ValidMonth(int(aopts.Month)) {
		return nil, fmt.Errorf("chrome: append: month %d out of range", int(aopts.Month))
	}
	for _, m := range d.Months {
		if m == aopts.Month {
			return nil, fmt.Errorf("chrome: append: month %s already covered", aopts.Month)
		}
	}
	wc := w.Countries()
	if len(wc) != len(d.Countries) {
		return nil, fmt.Errorf("chrome: append: world has %d countries, dataset %d — not the base world", len(wc), len(d.Countries))
	}
	for i, c := range wc {
		if c.Code != d.Countries[i] {
			return nil, fmt.Errorf("chrome: append: world country %q at %d, dataset %q — not the base world", c.Code, i, d.Countries[i])
		}
	}

	newOpts := d.Opts
	newOpts.Months = append(append([]world.Month{}, d.Months...), aopts.Month)
	if aopts.RollDist {
		newOpts.DistMonth = aopts.Month
	}
	if aopts.Workers != 0 {
		newOpts.Workers = aopts.Workers
	}

	// The appended month's jobs in canonical order: countries as the
	// dataset lists them, platforms in canonical order. With RollDist
	// this is also the distribution accumulation order, and it matches
	// the order a full rebuild visits the (new) DistMonth's cells in —
	// month is the innermost loop there, so per-(country, platform)
	// order is all that matters.
	jobs := make([]cellJob, 0, len(d.Countries)*len(world.Platforms))
	for _, c := range d.Countries {
		for _, p := range world.Platforms {
			jobs = append(jobs, cellJob{country: c, platform: p, month: aopts.Month})
		}
	}

	lists := make(map[string]RankList, 2*len(jobs))
	coverage := make(map[string]float64, 2*len(jobs))
	accLoads, accTime, err := runStreamCells(ctx, w, tcfg, newOpts, jobs, lists, coverage)
	if err != nil {
		return nil, err
	}

	inc := &Increment{
		Month:     aopts.Month,
		RollDist:  aopts.RollDist,
		Opts:      newOpts,
		Countries: append([]string{}, d.Countries...),
		Lists:     lists,
		Coverage:  coverage,
	}
	if aopts.RollDist {
		inc.Dist = make(map[string]*DistCurve, 2*len(world.Platforms))
		for _, p := range world.Platforms {
			inc.Dist[distKey(p, world.PageLoads)] = NewDistCurve(accLoads[p])
			inc.Dist[distKey(p, world.TimeOnPage)] = NewDistCurve(accTime[p])
		}
	}
	if err := d.ApplyIncrement(inc); err != nil {
		return nil, err
	}
	metrics.ObserveStage("chrome.append", time.Since(appendStart))
	return inc, nil
}

// ApplyIncrement merges a computed or decoded increment into the
// dataset: install the month's cells, extend the covered window,
// adopt the resulting Options, replace the distribution curves under
// RollDist, and grow the interned key index in place when one has
// been built. The increment is validated against the base first —
// wrong country coverage, an already-covered month, inconsistent
// resulting Options, or missing cells reject the whole apply with the
// dataset unchanged.
//
// On success the dataset's mutation generation advances, which
// invalidates every generation-keyed memo (Dataset.Index here, the
// analysis cache in internal/core).
func (d *Dataset) ApplyIncrement(inc *Increment) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.validateIncrementLocked(inc); err != nil {
		return fmt.Errorf("chrome: apply increment: %w", err)
	}

	// Grow the memoized index only when the memo is live and fresh;
	// otherwise drop it and let Index() rebuild over the merged
	// dataset. growIndex preserves the sorted-ID invariant (IDs sorted
	// numerically == keys sorted lexically) by sorted merge + remap,
	// so a grown index is indistinguishable from a fresh build.
	if d.index != nil && d.indexGen == d.gen {
		d.index = growIndex(d, d.index, inc.Lists)
	} else {
		d.index = nil
	}

	for k, l := range inc.Lists {
		d.lists[k] = l
	}
	for k, c := range inc.Coverage {
		d.coverage[k] = c
	}
	if inc.RollDist {
		for k, c := range inc.Dist {
			d.dist[k] = c
		}
	}
	d.Months = append(append([]world.Month{}, d.Months...), inc.Month)
	d.Opts = inc.Opts
	d.gen++
	if d.index != nil {
		d.indexGen = d.gen
	}
	return nil
}

// validateIncrementLocked checks an increment against the base before
// any state changes. Beyond structural validity (reusing the dataset
// decoder's invariants), it pins the cross-artifact contract: same
// countries, month not yet covered, resulting Options derivable from
// the base's, all cells present, and RollDist ⇔ full replacement
// curves.
func (d *Dataset) validateIncrementLocked(inc *Increment) error {
	if !world.ValidMonth(int(inc.Month)) {
		return fmt.Errorf("month %d out of range", int(inc.Month))
	}
	for _, m := range d.Months {
		if m == inc.Month {
			return fmt.Errorf("month %s already covered by base", inc.Month)
		}
	}
	if len(inc.Countries) != len(d.Countries) {
		return fmt.Errorf("increment covers %d countries, base %d", len(inc.Countries), len(d.Countries))
	}
	for i, c := range inc.Countries {
		if c != d.Countries[i] {
			return fmt.Errorf("increment country %q at %d, base %q", c, i, d.Countries[i])
		}
	}

	wantMonths := append(append([]world.Month{}, d.Months...), inc.Month)
	if len(inc.Opts.Months) != len(wantMonths) {
		return fmt.Errorf("increment Options cover %d months, want %d", len(inc.Opts.Months), len(wantMonths))
	}
	for i, m := range inc.Opts.Months {
		if m != wantMonths[i] {
			return fmt.Errorf("increment Options month %s at %d, want %s", m, i, wantMonths[i])
		}
	}
	wantDist := d.Opts.DistMonth
	if inc.RollDist {
		wantDist = inc.Month
	}
	if inc.Opts.DistMonth != wantDist {
		return fmt.Errorf("increment DistMonth %s, want %s", inc.Opts.DistMonth, wantDist)
	}
	if inc.Opts.Seed != d.Opts.Seed ||
		inc.Opts.PrivacyThreshold != d.Opts.PrivacyThreshold ||
		inc.Opts.TopN != d.Opts.TopN {
		return fmt.Errorf("increment assembly parameters (seed/threshold/topn %d/%d/%d) differ from base (%d/%d/%d)",
			inc.Opts.Seed, inc.Opts.PrivacyThreshold, inc.Opts.TopN,
			d.Opts.Seed, d.Opts.PrivacyThreshold, d.Opts.TopN)
	}

	// Exactly the appended month's cell grid, nothing else. Structural
	// invariants (descending lists, finite values, coverage in [0,1],
	// normalised curves) reuse the dataset decoder's validator.
	for _, c := range inc.Countries {
		for _, p := range world.Platforms {
			for _, m := range []world.Metric{world.PageLoads, world.TimeOnPage} {
				if _, ok := inc.Lists[listKey(c, p, m, inc.Month)]; !ok {
					return fmt.Errorf("increment missing cell %q", listKey(c, p, m, inc.Month))
				}
			}
		}
	}
	if want := len(inc.Countries) * len(world.Platforms) * 2; len(inc.Lists) != want {
		return fmt.Errorf("increment has %d lists, want %d", len(inc.Lists), want)
	}
	for key := range inc.Lists {
		if err := cellKeyMonth(key, inc.Month); err != nil {
			return err
		}
	}
	for key := range inc.Coverage {
		if err := cellKeyMonth(key, inc.Month); err != nil {
			return err
		}
		if _, ok := inc.Lists[key]; !ok {
			return fmt.Errorf("increment coverage %q has no list", key)
		}
	}
	if inc.RollDist {
		if want := 2 * len(world.Platforms); len(inc.Dist) != want {
			return fmt.Errorf("roll-dist increment has %d curves, want %d", len(inc.Dist), want)
		}
		for _, p := range world.Platforms {
			for _, m := range []world.Metric{world.PageLoads, world.TimeOnPage} {
				if inc.Dist[distKey(p, m)] == nil {
					return fmt.Errorf("roll-dist increment missing curve %q", distKey(p, m))
				}
			}
		}
	} else if len(inc.Dist) != 0 {
		return fmt.Errorf("non-roll increment carries %d dist curves, want none", len(inc.Dist))
	}
	return validateDataset([]world.Month{inc.Month}, inc.Lists, inc.Coverage, inc.Dist)
}

// cellKeyMonth validates a cell key and pins its month field.
func cellKeyMonth(key string, want world.Month) error {
	if err := parseCellKey(key); err != nil {
		return err
	}
	m, err := cellKeyMonthOf(key)
	if err != nil {
		return err
	}
	if m != want {
		return fmt.Errorf("cell key %q: month %s, want %s", key, m, want)
	}
	return nil
}
