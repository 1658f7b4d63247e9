package main

import (
	"wwb/internal/chrome"
	"wwb/internal/core"
	"wwb/internal/experiments"
	"wwb/internal/fleet"
)

// server is a thin wrapper over the fleet serving core: the /v1 HTTP
// API, the hardening middleware, and the swappable dataset epoch all
// live in internal/fleet (shared with wwbrouter and the fleet tests);
// this command only wires in the study- or dataset-mode hooks.
type server struct {
	*fleet.Server
}

// newServer serves a fully assembled study: site categories and
// experiments are available.
func newServer(s *core.Study) *server {
	runner := experiments.Runner{Study: s}
	return &server{fleet.NewServer(s.Dataset, fleet.ServerConfig{
		Month:        s.Month,
		Categorize:   func(domain string) string { return string(s.Categorize(domain)) },
		Experiment:   runner.Run,
		LoadSnapshot: loadSnapshot,
	})}
}

// newDatasetServer serves a bare dataset (optionally one shard slice).
func newDatasetServer(ds *chrome.Dataset, shard fleet.Assignment) *server {
	return &server{fleet.NewServer(ds, fleet.ServerConfig{
		Shard:        shard,
		Month:        ds.Opts.DistMonth,
		LoadSnapshot: loadSnapshot,
	})}
}
