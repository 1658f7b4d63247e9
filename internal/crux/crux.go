// Package crux exports the study dataset the way the public Chrome
// User Experience Report exposes popularity (Section 3.1, "Public Data
// Access"): rank-order magnitude buckets of domains ranked by
// completed page loads, per country and globally. Exact ranks and
// volumes are withheld; only the bucket survives, which is the
// coarseness the paper points researchers to for reproducible work.
//
// Export runs only over a whole dataset. The serving fleet renders
// every /v1/crux body from it: an unsharded server on the first
// request of an epoch, a shard server when it builds an epoch, before
// slicing. No caller reassembles an export from shard-sliced lists.
package crux

import (
	"sort"

	"wwb/internal/chrome"
	"wwb/internal/world"
)

// Buckets are the rank-magnitude boundaries, mirroring CrUX.
var Buckets = []int{1000, 5000, 10000, 50000, 100000, 500000, 1000000}

// BucketFor returns the smallest bucket a 1-based rank falls into, or
// 0 when the rank is beyond the largest bucket.
func BucketFor(rank int) int {
	for _, b := range Buckets {
		if rank <= b {
			return b
		}
	}
	return 0
}

// Record is one public row: a domain's rank bucket in a scope.
type Record struct {
	// Country is an ISO code, or "" for the global scope.
	Country string `json:"country,omitempty"`
	Domain  string `json:"domain"`
	Bucket  int    `json:"bucket"`
}

// Export produces the public records for one month: every country's
// page-load list bucketed, plus a global list built by summing load
// volumes per domain across countries (Windows and Android combined,
// like the public dataset's cross-platform aggregation). The global
// volumes accumulate in roster order, platforms in canonical order —
// float addition is not associative, so the export is only
// reproducible over a whole dataset in that one order.
func Export(ds *chrome.Dataset, month world.Month) []Record {
	var out []Record
	globalVolume := map[string]float64{}
	for _, country := range ds.Countries {
		perCountry := map[string]float64{}
		for _, p := range world.Platforms {
			for _, e := range ds.List(country, p, world.PageLoads, month) {
				perCountry[e.Domain] += e.Value
				globalVolume[e.Domain] += e.Value
			}
		}
		out = append(out, bucketize(perCountry, country)...)
	}
	out = append(out, bucketize(globalVolume, "")...)
	return out
}

// bucketize ranks a volume map and emits bucketed records.
func bucketize(volumes map[string]float64, country string) []Record {
	type kv struct {
		domain string
		volume float64
	}
	rows := make([]kv, 0, len(volumes))
	for d, v := range volumes {
		rows = append(rows, kv{d, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].volume != rows[j].volume {
			return rows[i].volume > rows[j].volume
		}
		return rows[i].domain < rows[j].domain
	})
	out := make([]Record, 0, len(rows))
	for i, r := range rows {
		b := BucketFor(i + 1)
		if b == 0 {
			break
		}
		out = append(out, Record{Country: country, Domain: r.domain, Bucket: b})
	}
	return out
}

// Filter returns the records for one scope ("" = global).
func Filter(records []Record, country string) []Record {
	var out []Record
	for _, r := range records {
		if r.Country == country {
			out = append(out, r)
		}
	}
	return out
}

// InBucket returns the domains of a scope whose bucket is at most b
// (i.e. the "top b" coarse set).
func InBucket(records []Record, country string, b int) []string {
	var out []string
	for _, r := range records {
		if r.Country == country && r.Bucket <= b && r.Bucket != 0 {
			out = append(out, r.Domain)
		}
	}
	return out
}
