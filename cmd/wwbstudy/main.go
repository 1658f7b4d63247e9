// Command wwbstudy runs the full reproduction study and prints any of
// the paper's tables and figures.
//
// Usage:
//
//	wwbstudy -experiment all            # every table and figure
//	wwbstudy -experiment fig1,table2    # a selection
//	wwbstudy -list                      # show experiment IDs
//	wwbstudy -scale small -seed 7 -experiment fig10
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"wwb/internal/chaos"
	"wwb/internal/core"
	"wwb/internal/experiments"
	"wwb/internal/metrics"
	"wwb/internal/world"
)

// logStageSummary prints the pipeline stage-timing table to stderr
// (via log), keeping stdout experiment output byte-identical with
// instrumentation on.
func logStageSummary() {
	if summary := metrics.StageSummary(); summary != "" {
		log.Printf("stage timings:\n%s", summary)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("wwbstudy: ")

	var (
		experiment = flag.String("experiment", "all", "comma-separated experiment IDs, or 'all'")
		scale      = flag.String("scale", "default", "universe scale: small, default, large, or huge")
		seed       = flag.Uint64("seed", 42, "world generation seed")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		febOnly    = flag.Bool("feb-only", false, "assemble February only (faster; disables sec4.5)")
		robustness = flag.Int("robustness", 0, "instead of experiments, sweep N seeds and print headline stats")
		chaosSeed  = flag.Uint64("chaos-seed", 0, "fault-injection seed for the categorisation transport (only with -chaos-rate > 0)")
		chaosRate  = flag.Float64("chaos-rate", 0, "fault-injection rate in [0,1] for the categorisation transport; 0 disables chaos")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			e, _ := experiments.Lookup(id)
			fmt.Printf("%-8s %s\n", id, e.Title)
		}
		return
	}

	cfg := core.DefaultConfig()
	wcfg, err := world.ConfigForScale(*scale)
	if err != nil {
		log.Fatal(err)
	}
	cfg.World = wcfg
	cfg.World.Seed = *seed
	cfg.Chaos = chaos.Flaky(*chaosSeed, *chaosRate)
	if *febOnly {
		cfg = cfg.FebOnly()
	}

	if *robustness > 0 {
		seeds := make([]uint64, *robustness)
		for i := range seeds {
			seeds[i] = *seed + uint64(i)
		}
		log.Printf("sweeping %d seeds at %s scale...", *robustness, *scale)
		fmt.Print(experiments.RenderRobustness(experiments.RobustnessSweep(cfg, seeds)))
		logStageSummary()
		return
	}

	log.Printf("running %s study (seed %d)...", *scale, *seed)
	if cfg.Chaos.Enabled() {
		log.Printf("chaos enabled: seed %d rate %.2f", cfg.Chaos.Seed, cfg.Chaos.Rate)
	}
	study := core.New(cfg)
	runner := experiments.Runner{Study: study}
	defer logStageSummary()
	if cfg.Chaos.Enabled() {
		// Surface how much injected fault traffic the study absorbed.
		defer func() { log.Printf("chaos stats: %+v", study.Client.Stats()) }()
	}

	if *experiment == "all" {
		fmt.Print(runner.RunAll())
		return
	}
	failed := false
	for _, id := range strings.Split(*experiment, ",") {
		out, err := runner.Run(strings.TrimSpace(id))
		if err != nil {
			log.Print(err)
			failed = true
			continue
		}
		fmt.Println(out)
	}
	if failed {
		// os.Exit skips deferred calls; print the table first.
		logStageSummary()
		os.Exit(1)
	}
}
