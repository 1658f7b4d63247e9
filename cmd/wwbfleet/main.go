// Command wwbfleet supervises an N-shard × R-replica wwbserve fleet:
// it launches every replica process, health-probes them, restarts
// crashed replicas with exponential backoff and deterministic jitter,
// and performs validation-gated fleet swaps with automatic rollback —
// a corrupt snapshot is quarantined (renamed .bad) before any replica
// ever sees it, and a rollout that fails mid-way rolls the whole
// fleet back to the previous artifact at a strictly newer epoch.
//
// Topology comes from a JSON manifest or from flags:
//
//	wwbfleet -manifest fleet.json
//	wwbfleet -data study.wwb -shards 2 -replicas 2 -base-port 8081
//
// The flag form assigns port base-port + shard*replicas + replica on
// 127.0.0.1. The supervisor's own admin surface listens on -addr:
//
//	GET  /healthz
//	GET  /metrics
//	GET  /status            fleet health, restarts, current artifact
//	POST /admin/swap?data=… validation-gated fleet swap
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"wwb/internal/fleet"
)

// manifest is the JSON fleet description: the wwbserve binary, the
// boot artifact, and the listen addresses per shard replica.
type manifest struct {
	ServeBin string     `json:"serveBin"`
	Data     string     `json:"data"`
	Shards   [][]string `json:"shards"`
}

// execProc supervises one wwbserve child process.
type execProc struct {
	cmd  *exec.Cmd
	stop sync.Once
}

func (p *execProc) Wait() error { return p.cmd.Wait() }

// Stop asks the child to drain (SIGTERM); wwbserve's graceful
// shutdown handles the rest.
func (p *execProc) Stop() {
	p.stop.Do(func() {
		if p.cmd.Process != nil {
			p.cmd.Process.Signal(syscall.SIGTERM)
		}
	})
}

// execRunner launches one wwbserve replica for a spec.
func execRunner(bin string, shards int, extra []string) fleet.Runner {
	return func(spec fleet.ReplicaSpec) (fleet.Process, error) {
		args := []string{
			"-addr", spec.Addr,
			"-data", spec.Data,
			"-shard", fmt.Sprintf("%d/%d", spec.Shard, shards),
		}
		cmd := exec.Command(bin, append(args, extra...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return &execProc{cmd: cmd}, nil
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("wwbfleet: ")

	var (
		addr         = flag.String("addr", "127.0.0.1:8079", "supervisor admin listen address")
		manifestPath = flag.String("manifest", "", "JSON fleet manifest (overrides -data/-shards/-replicas/-base-port)")
		data         = flag.String("data", "", "artifact every replica serves at boot (.wwb snapshot, or .wwbd delta over its base chain)")
		shards       = flag.Int("shards", 2, "shard count")
		replicas     = flag.Int("replicas", 1, "replicas per shard")
		basePort     = flag.Int("base-port", 8081, "first replica port; slot s,r listens on base-port + s*replicas + r")
		serveBin     = flag.String("serve-bin", "wwbserve", "path to the wwbserve binary")
		probe        = flag.Duration("probe-interval", 500*time.Millisecond, "health-probe period")
		backoffBase  = flag.Duration("backoff-base", 100*time.Millisecond, "initial restart backoff")
		backoffMax   = flag.Duration("backoff-max", 5*time.Second, "restart backoff cap")
		seed         = flag.Uint64("seed", 42, "keys the deterministic restart jitter")
	)
	flag.Parse()

	var m manifest
	if *manifestPath != "" {
		raw, err := os.ReadFile(*manifestPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			log.Fatalf("parsing %s: %v", *manifestPath, err)
		}
	} else {
		m = manifest{ServeBin: *serveBin, Data: *data}
		for s := 0; s < *shards; s++ {
			var reps []string
			for r := 0; r < *replicas; r++ {
				reps = append(reps, fmt.Sprintf("127.0.0.1:%d", *basePort+s**replicas+r))
			}
			m.Shards = append(m.Shards, reps)
		}
	}
	if m.ServeBin == "" {
		m.ServeBin = "wwbserve"
	}
	if m.Data == "" {
		log.Fatal("a boot artifact is required (-data or manifest \"data\"): supervised replicas serve snapshots, not self-assembled studies")
	}
	if _, err := fleet.ValidateSnapshot(m.Data); err != nil {
		log.Fatalf("boot artifact %s failed validation: %v", m.Data, err)
	}

	sup, err := fleet.NewSupervisor(fleet.SupervisorConfig{
		Shards:        m.Shards,
		Data:          m.Data,
		Runner:        execRunner(m.ServeBin, len(m.Shards), flag.Args()),
		ProbeInterval: *probe,
		BackoffBase:   *backoffBase,
		BackoffMax:    *backoffMax,
		Seed:          *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, reps := range m.Shards {
		log.Printf("shard %d/%d: %v", i, len(m.Shards), reps)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	runDone := make(chan struct{})
	go func() {
		sup.Run(ctx)
		close(runDone)
	}()

	srv := &http.Server{
		Handler:           sup.Routes(fleet.MiddlewareConfig{}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("supervising %d shards on http://%s", len(m.Shards), *addr)
	if err := fleet.Serve(ctx, srv, ln, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	<-runDone
	log.Printf("fleet stopped, bye")
}
