// Command wwbload replays a seed-deterministic zipfian query mix
// against a wwbserve server or a wwbrouter fleet at a fixed open-loop
// rate, then reports latency percentiles and the shed rate and judges
// them against SLO thresholds. The same -seed always produces the
// same query sequence, so a failing run is replayable bit for bit.
//
//	wwbload -target http://127.0.0.1:8080 -rps 200 -duration 30s \
//	  -slo-p99 250 -slo-shed 0.01 -out load.json
//
// Exit status is non-zero when any SLO is violated, which is what
// lets CI gate on serving performance.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wwb/internal/chaos"
	"wwb/internal/fleet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wwbload: ")

	var (
		target    = flag.String("target", "http://127.0.0.1:8080", "base URL of the server or router under load")
		rps       = flag.Float64("rps", 50, "offered request rate (open loop)")
		duration  = flag.Duration("duration", 10*time.Second, "run length")
		seed      = flag.Uint64("seed", 1, "query-sequence seed")
		workers   = flag.Int("workers", 0, "max in-flight requests (0 = 4×RPS, clamped to [8,512])")
		sloP99    = flag.Float64("slo-p99", 0, "p99 latency SLO in ms (0 = not asserted)")
		sloShed   = flag.Float64("slo-shed", 0, "max tolerated shed rate in [0,1]")
		sloErrs   = flag.Int("slo-errors", 0, "max tolerated transport/5xx errors")
		chaosSeed = flag.Uint64("chaos-seed", 0, "fault-injection seed for the client transport (only with -chaos-rate > 0)")
		chaosRate = flag.Float64("chaos-rate", 0, "fault-injection rate in [0,1] on client requests; injected failures are reported apart from real errors")
		out       = flag.String("out", "", "write the JSON report here (e.g. load.json)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	countries, domains, months, err := discover(ctx, *target)
	if err != nil {
		log.Fatalf("discovering rosters from %s: %v", *target, err)
	}
	log.Printf("target %s: %d countries, %d domains, %d months in roster",
		*target, len(countries), len(domains), len(months))
	log.Printf("replaying seed %d at %.0f rps for %s...", *seed, *rps, *duration)

	tcfg := chaos.FlakyTransport(*chaosSeed, *chaosRate)
	if tcfg.Enabled() {
		log.Printf("chaos transport enabled: seed %d rate %.2f", *chaosSeed, *chaosRate)
	}
	report, err := fleet.RunLoad(ctx, fleet.LoadConfig{
		BaseURL:   *target,
		Seed:      *seed,
		RPS:       *rps,
		Duration:  *duration,
		Workers:   *workers,
		Countries: countries,
		Domains:   domains,
		Months:    months,
		Client: &http.Client{
			Timeout:   10 * time.Second,
			Transport: chaos.NewTransport(tcfg, nil),
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	log.Printf("sent %d: %d ok, %d shed (rate %.4f), %d errors, %d injected, %d dropped",
		report.Sent, report.OK, report.Shed, report.ShedRate, report.Errors, report.Injected, report.Dropped)
	log.Printf("latency ms: p50 %.1f  p90 %.1f  p99 %.1f  max %.1f",
		report.P50Ms, report.P90Ms, report.P99Ms, report.MaxMs)

	if *out != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", *out)
	}

	slo := fleet.SLO{P99Ms: *sloP99, MaxShedRate: *sloShed, MaxErrors: *sloErrs}
	if violations := slo.Check(report); len(violations) > 0 {
		for _, v := range violations {
			log.Printf("SLO VIOLATION: %s", v)
		}
		os.Exit(1)
	}
	log.Printf("SLOs met")
}

// discover pulls the generator rosters off the live target: the
// country/month roster from /shard/info (served by both wwbserve and
// wwbrouter) and a domain pool from the head of the first country's
// rank list, so /v1/site queries hit real sites.
func discover(ctx context.Context, base string) (countries, domains, months []string, err error) {
	client := &http.Client{Timeout: 15 * time.Second}
	var info struct {
		Countries []string `json:"countries"`
		Months    []string `json:"months"`
	}
	if err := getJSON(ctx, client, base+"/shard/info", &info); err != nil {
		return nil, nil, nil, err
	}
	if len(info.Countries) == 0 {
		return nil, nil, nil, fmt.Errorf("target reported no countries")
	}
	var list []struct {
		Domain string `json:"domain"`
	}
	listURL := fmt.Sprintf("%s/v1/list?country=%s&platform=windows&metric=loads&n=100", base, info.Countries[0])
	if err := getJSON(ctx, client, listURL, &list); err != nil {
		return nil, nil, nil, err
	}
	for _, e := range list {
		domains = append(domains, e.Domain)
	}
	// Only months the /v1 query parser accepts go into the mix; a
	// dataset assembled outside the study window would otherwise make
	// the generator emit permanent 400s.
	for _, m := range info.Months {
		if _, err := fleet.ParseMonth(m, 0); err == nil {
			months = append(months, m)
		}
	}
	return info.Countries, domains, months, nil
}

// getJSON fetches and decodes one JSON endpoint.
func getJSON(ctx context.Context, client *http.Client, u string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
