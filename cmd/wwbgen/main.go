// Command wwbgen generates a synthetic study dataset and writes it as
// a .wwb binary snapshot (the lossless format, with embedded
// provenance) or as CSV rank lists: the rank lists and traffic-
// distribution curves a downstream analysis (or the wwbserve server)
// consumes. Generation is fully deterministic in the seed, and file
// output is atomic: the target path only ever holds a complete,
// flushed dataset.
//
// Usage:
//
//	wwbgen -scale small -seed 42 -months feb -o dataset.wwb
//	wwbgen -scale default -seed 42 -format csv -o lists.csv
//
// Append mode rolls an existing binary snapshot forward by one month
// without rebuilding the covered window: only the new month's cells
// are assembled (against a world regenerated from the base's embedded
// provenance) and written as a .wwbd delta snapshot that binds to the
// base by size, whole-file checksum, and provenance:
//
//	wwbgen -append 2022-03 -base study.wwb -o study+mar.wwbd
//	wwbgen -append 2022-03 -base study.wwb -roll-dist -o study+mar.wwbd
//	wwbgen -append 2022-03 -base study.wwb -format wwb -o merged.wwb
package main

import (
	"context"
	"flag"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"wwb/internal/chrome"
	"wwb/internal/metrics"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wwbgen: ")

	var (
		scale     = flag.String("scale", "default", "universe scale: small, default, large, or huge")
		seed      = flag.Uint64("seed", 42, "world generation seed")
		months    = flag.String("months", "all", "months to assemble: all, feb, or an inclusive range like 2021-09..2022-03")
		out       = flag.String("o", "-", "output path (- for stdout)")
		format    = flag.String("format", "wwb", "output format: wwb (lossless binary snapshot with interned index, near-instant load) or csv (rank lists only)")
		threshold = flag.Int64("privacy-threshold", 50, "minimum unique clients per site per month")
		topN      = flag.Int("topn", 10000, "rank list depth")
		appendM   = flag.String("append", "", "append mode: month to roll the -base snapshot forward by, e.g. 2022-03")
		basePath  = flag.String("base", "", "append mode: existing snapshot (.wwb, or .wwbd chain) to append onto")
		rollDist  = flag.Bool("roll-dist", false, "append mode: make the appended month the new distribution month (curves recomputed)")
	)
	flag.Parse()

	if *appendM != "" || *basePath != "" {
		runAppend(*appendM, *basePath, *rollDist, *format, *out)
		return
	}

	switch *format {
	case "wwb", "csv":
	default:
		// Rejected before the (potentially minutes-long) assembly, not
		// after.
		log.Fatalf("unknown -format %q (want wwb or csv)", *format)
	}
	// Scale is validated here, before the expensive world generation —
	// the error enumerates every accepted name, huge included.
	wcfg, err := world.ConfigForScale(*scale)
	if err != nil {
		log.Fatal(err)
	}
	wcfg.Seed = *seed

	opts := chrome.DefaultOptions()
	opts.PrivacyThreshold = *threshold
	opts.TopN = *topN
	switch *months {
	case "all":
	case "feb":
		opts.Months = []world.Month{world.Feb2022}
	default:
		// An explicit range ("2021-09..2022-03") assembles any
		// contiguous span of the simulated year — the full-rebuild
		// oracle the roll-forward CI job byte-diffs appends against.
		span, err := world.MonthRange(*months)
		if err != nil {
			log.Fatalf("-months: %v (or use all / feb)", err)
		}
		opts.Months = span
	}

	log.Printf("generating %s universe (seed %d)...", *scale, *seed)
	genStart := time.Now()
	w := world.Generate(wcfg)
	metrics.ObserveStage("world.generate", time.Since(genStart))
	log.Printf("%d sites; assembling dataset...", len(w.Sites()))
	ds := chrome.Assemble(w, telemetry.DefaultConfig(), opts)
	if summary := metrics.StageSummary(); summary != "" {
		log.Printf("stage timings:\n%s", summary)
	}
	log.Printf("assembly peak heap: %.1f MiB", float64(chrome.AssemblePeakHeapBytes())/(1<<20))

	prov := chrome.SnapshotProvenance{Tool: "wwbgen", WorldSeed: *seed, Scale: *scale}
	var encode func(io.Writer) error
	switch *format {
	case "csv":
		encode = ds.EncodeCSV
	case "wwb":
		encode = func(w io.Writer) error { return ds.EncodeSnapshot(w, prov) }
	}
	if *out == "-" {
		if err := encode(os.Stdout); err != nil {
			log.Fatalf("encoding dataset: %v", err)
		}
		return
	}
	// Atomic write: encode to a temp file, close it (checking the
	// error), then rename into place — only then claim success.
	if err := writeFileAtomic(*out, encode); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}

// runAppend is wwbgen's append mode: assemble exactly one new month
// against a world regenerated from the base snapshot's embedded
// provenance, and persist the result — as a .wwbd delta bound to the
// base (default) or as a full merged snapshot (-format wwb).
func runAppend(monthName, basePath string, rollDist bool, format, out string) {
	if monthName == "" || basePath == "" {
		log.Fatal("append mode needs both -append MONTH and -base PATH")
	}
	month, ok := world.MonthByName(monthName)
	if !ok {
		log.Fatalf("unknown -append month %q (want 2021-09 … 2022-08)", monthName)
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	for _, name := range []string{"scale", "seed", "months", "privacy-threshold", "topn"} {
		if explicit[name] {
			log.Fatalf("-%s conflicts with append mode: the world and assembly options come from the base snapshot", name)
		}
	}
	if !explicit["format"] {
		format = "wwbd"
	}
	switch format {
	case "wwbd", "wwb":
	case "csv":
		log.Fatalf("-format %q unavailable in append mode: deltas bind to their base by binary checksum and provenance (want wwbd or wwb)", format)
	default:
		log.Fatalf("unknown -format %q (want wwbd or wwb)", format)
	}

	ds, info, err := chrome.DecodeAnyPath(basePath)
	if err != nil {
		log.Fatalf("loading base %s: %v", basePath, err)
	}
	if info.Provenance.Tool == "" {
		log.Fatalf("base %s carries no provenance: append cannot regenerate its world — regenerate the base with wwbgen first", basePath)
	}
	wcfg, err := world.ConfigForScale(info.Provenance.Scale)
	if err != nil {
		log.Fatalf("base %s: %v", basePath, err)
	}
	wcfg.Seed = info.Provenance.WorldSeed

	log.Printf("regenerating %s universe (seed %d) from base provenance...",
		info.Provenance.Scale, info.Provenance.WorldSeed)
	genStart := time.Now()
	w := world.Generate(wcfg)
	metrics.ObserveStage("world.generate", time.Since(genStart))
	log.Printf("appending %s to %s (%d months covered, roll-dist %v)...",
		month, basePath, len(ds.Months), rollDist)
	inc, err := chrome.AppendMonthCtx(context.Background(), ds, w, telemetry.DefaultConfig(),
		chrome.AppendOptions{Month: month, RollDist: rollDist})
	if err != nil {
		log.Fatalf("append failed: %v", err)
	}
	if summary := metrics.StageSummary(); summary != "" {
		log.Printf("stage timings:\n%s", summary)
	}
	log.Printf("append peak heap: %.1f MiB", float64(chrome.AssemblePeakHeapBytes())/(1<<20))

	prov := chrome.SnapshotProvenance{Tool: "wwbgen", WorldSeed: info.Provenance.WorldSeed, Scale: info.Provenance.Scale}
	var encode func(io.Writer) error
	switch format {
	case "wwbd":
		baseData, err := os.ReadFile(basePath)
		if err != nil {
			log.Fatalf("re-reading base for the delta binding: %v", err)
		}
		base := chrome.DeltaBase{
			Name:       filepath.Base(basePath),
			Size:       uint64(len(baseData)),
			CRC:        chrome.SnapshotFileCRC(baseData),
			Provenance: info.Provenance,
		}
		encode = func(w io.Writer) error { return chrome.EncodeDelta(w, inc, base, prov) }
	case "wwb":
		encode = func(w io.Writer) error { return ds.EncodeSnapshot(w, prov) }
	}
	if out == "-" {
		if err := encode(os.Stdout); err != nil {
			log.Fatalf("encoding output: %v", err)
		}
		return
	}
	if err := writeFileAtomic(out, encode); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", out)
}
