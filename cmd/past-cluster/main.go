// Command past-cluster boots a fleet of REAL pastd processes on
// loopback and drives a seeded, deterministic process-level fault
// schedule against it — SIGKILL with logstore crash recovery, SIGTERM
// graceful leaves, restart-with-rejoin, rolling churn — while inserting
// client traffic and (with -check) continuously auditing the same
// replica invariants the emulator's chaos checker enforces, plus
// zero-loss verification of every acknowledged write and an offline
// fsck of each store after every process life.
//
// The daemons are this binary re-executing itself (no separate build
// step); point -pastd at a pastd binary to supervise that instead.
//
// Usage:
//
//	past-cluster                                   # 10 nodes, seed 1, mixed faults, churn only
//	past-cluster -nodes 10 -seed 1 -kill-rate 0.1 -check   # the acceptance run: audit everything
//	past-cluster -scenario rolling -rounds 10 -check       # staggered rolling restart
//	past-cluster -scenario kill -kill-rate 0.2 -check      # crash-recovery heavy
//	past-cluster -ec 3,2 -scenario kill -check             # erasure-coded fleet, lazy fragment repair
//	past-cluster -nodes 5 -rounds 2 -check -events-out run.jsonl
//	past-cluster -duration 45s -check              # stop scheduling new rounds after 45s
//	past-cluster -data /tmp/fleet -keep -v         # keep per-node logs and stores
//	past-cluster top -nodes 127.0.0.1:7001,...     # live dashboard of a running fleet (see top.go)
//
// The pass/fail summary line is seed-stable: two passing runs with the
// same flags print byte-identical summaries (wall-clock details print
// separately). Exit status is 0 only if the full plan was delivered and
// every check held.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"past/internal/cluster"
	"past/internal/daemon"
	"past/internal/obs"
)

func main() {
	cluster.MaybeRunDaemon(daemon.Run)
	if len(os.Args) > 1 && os.Args[1] == "top" {
		os.Exit(runTop(os.Args[2:]))
	}
	os.Exit(run())
}

func run() int {
	var (
		nodes    = flag.Int("nodes", 10, "fleet size (real processes)")
		seed     = flag.Int64("seed", 1, "seed: node identities, fault schedule, traffic")
		scenario = flag.String("scenario", "mixed", "fault mix: mixed, kill, graceful, or rolling")
		rounds   = flag.Int("rounds", 6, "fault rounds")
		killRate = flag.Float64("kill-rate", 0.1, "fraction of the fleet disturbed per round (min one node)")
		duration = flag.Duration("duration", 0, "wall-clock budget, fleet boot included; rounds not started by then are skipped (0: run the full plan)")
		check    = flag.Bool("check", false, "audit live replica invariants and verify every acked write after each round")
		ecMode   = flag.String("ec", "", "erasure-coded storage mode \"m,n\" (e.g. 3,2); empty: k-way replication")
		ecBudget = flag.String("ec-repair-budget", "", "per-daemon repair bandwidth cap per maintenance pass (e.g. 256KB); empty: uncapped")
		events   = flag.String("events-out", "", "stream JSONL events (faults, violations, ticks, summary) to this file")
		pastd    = flag.String("pastd", "", "supervise this pastd binary instead of self-executing")
		dataDir  = flag.String("data", "", "base directory for node stores and logs (default: temp, removed on success)")
		keep     = flag.Bool("keep", false, "retain the base directory even on success")
		verbose  = flag.Bool("v", false, "narrate orchestration to stderr")
	)
	flag.Parse()

	cfg := cluster.Config{
		Nodes:          *nodes,
		Seed:           *seed,
		EC:             *ecMode,
		ECRepairBudget: *ecBudget,
		Dir:            *dataDir,
	}
	scfg := cluster.ScenarioConfig{
		Scenario: *scenario,
		Rounds:   *rounds,
		KillRate: *killRate,
		NoCheck:  !*check,
	}
	if *duration > 0 {
		scfg.Deadline = time.Now().Add(*duration)
	}
	if *pastd != "" {
		cfg.Command = cluster.Command{Path: *pastd}
	}
	if *verbose {
		cfg.Out = os.Stderr
	}
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintf(os.Stderr, "past-cluster: %v\n", err)
			return 1
		}
		log := obs.NewEventLog(f)
		cfg.Events = log
		defer func() {
			if err := log.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "past-cluster: events: %v\n", err)
			}
			f.Close()
		}()
	}

	res, err := cluster.Run(cfg, scfg, *keep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "past-cluster: %v\n", err)
		return 1
	}
	io.WriteString(os.Stdout, res.String())
	if !res.Passed() {
		return 1
	}
	return 0
}
