package chrome

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"wwb/internal/world"
)

// parseCellKey splits and range-checks a "country|platform|metric|
// month" list/coverage key.
func parseCellKey(key string) error {
	parts := strings.Split(key, "|")
	if len(parts) != 4 {
		return fmt.Errorf("cell key %q: want country|platform|metric|month", key)
	}
	if parts[0] == "" {
		return fmt.Errorf("cell key %q: empty country", key)
	}
	p, err := strconv.Atoi(parts[1])
	if err != nil || !world.ValidPlatform(p) {
		return fmt.Errorf("cell key %q: bad platform %q", key, parts[1])
	}
	m, err := strconv.Atoi(parts[2])
	if err != nil || !world.ValidMetric(m) {
		return fmt.Errorf("cell key %q: bad metric %q", key, parts[2])
	}
	mo, err := strconv.Atoi(parts[3])
	if err != nil || !world.ValidMonth(mo) {
		return fmt.Errorf("cell key %q: bad month %q", key, parts[3])
	}
	return nil
}

// cellKeyMonthOf extracts the month field from a cell key that has
// already passed parseCellKey.
func cellKeyMonthOf(key string) (world.Month, error) {
	parts := strings.Split(key, "|")
	if len(parts) != 4 {
		return 0, fmt.Errorf("cell key %q: want country|platform|metric|month", key)
	}
	mo, err := strconv.Atoi(parts[3])
	if err != nil || !world.ValidMonth(mo) {
		return 0, fmt.Errorf("cell key %q: bad month %q", key, parts[3])
	}
	return world.Month(mo), nil
}

// validateDataset checks every invariant an assembled dataset holds
// over a decoded dataset's (or increment's) fields, so decoded files
// behave like assembled ones: corrupt input — malformed cell keys,
// rank lists that are not descending, non-finite values, out-of-range
// coverage or distribution shares — produces a descriptive error
// instead of a dataset that panics or silently misbehaves under later
// queries.
func validateDataset(months []world.Month, lists map[string]RankList, coverage map[string]float64, dist map[string]*DistCurve) error {
	for _, m := range months {
		if !world.ValidMonth(int(m)) {
			return fmt.Errorf("month %d out of range", int(m))
		}
	}
	for key, list := range lists {
		if err := parseCellKey(key); err != nil {
			return err
		}
		prev := math.Inf(1)
		for i, e := range list {
			if e.Domain == "" {
				return fmt.Errorf("list %q entry %d: empty domain", key, i)
			}
			if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) || e.Value < 0 {
				return fmt.Errorf("list %q entry %d (%s): bad value %v", key, i, e.Domain, e.Value)
			}
			if e.Value > prev {
				return fmt.Errorf("list %q entry %d (%s): values not descending (%v after %v)", key, i, e.Domain, e.Value, prev)
			}
			prev = e.Value
		}
	}
	for key, cov := range coverage {
		if err := parseCellKey(key); err != nil {
			return err
		}
		if math.IsNaN(cov) || cov < 0 || cov > 1 {
			return fmt.Errorf("coverage %q: %v outside [0,1]", key, cov)
		}
	}
	for key, curve := range dist {
		parts := strings.Split(key, "|")
		if len(parts) != 2 {
			return fmt.Errorf("dist key %q: want platform|metric", key)
		}
		if curve == nil {
			return fmt.Errorf("dist %q: null curve", key)
		}
		prev := math.Inf(1)
		for i, s := range curve.Shares {
			if math.IsNaN(s) || s < 0 || s > 1 {
				return fmt.Errorf("dist %q share %d: %v outside [0,1]", key, i, s)
			}
			if s > prev {
				return fmt.Errorf("dist %q share %d: shares not descending (%v after %v)", key, i, s, prev)
			}
			prev = s
		}
	}
	return nil
}
