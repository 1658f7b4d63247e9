package chrome

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"wwb/internal/world"
)

// EncodeCSV writes the dataset's rank lists as flat CSV rows:
//
//	country,platform,metric,month,rank,domain,value
//
// one row per list entry, in deterministic order (countries as stored,
// platforms/metrics/months in canonical order, rank ascending). The
// distribution curves are not included — use EncodeSnapshot for a
// lossless dump.
func (d *Dataset) EncodeCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"country", "platform", "metric", "month", "rank", "domain", "value"}); err != nil {
		return fmt.Errorf("chrome: writing CSV header: %w", err)
	}
	for _, country := range d.Countries {
		for _, p := range world.Platforms {
			for _, m := range world.Metrics {
				for _, month := range d.Months {
					list := d.List(country, p, m, month)
					for i, e := range list {
						rec := []string{
							country,
							p.String(),
							m.String(),
							month.String(),
							strconv.Itoa(i + 1),
							e.Domain,
							strconv.FormatFloat(e.Value, 'f', -1, 64),
						}
						if err := cw.Write(rec); err != nil {
							return fmt.Errorf("chrome: writing CSV row: %w", err)
						}
					}
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
