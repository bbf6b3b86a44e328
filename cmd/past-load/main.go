// Command past-load is the open-loop workload driver. It generates a
// seeded request schedule (constant, Poisson, or square-wave arrivals
// over a Zipf-popularity file population) and reports goodput and
// coordinated-omission-free latency percentiles.
//
// Two targets:
//
//	past-load -sim -nodes 25 -rate 300              # virtual-time emulated cluster
//	past-load -node 127.0.0.1:7001 -rate 300        # a real pastd node over TCP
//
// The sim is deterministic: a fixed seed yields a bit-identical result
// fingerprint, so runs are comparable across machines and commits.
//
//	past-load -sim -sweep                 # offered-rate sweep, shedding off vs on
//	past-load -sim -check                 # exit 0 only if shedding wins at 2x capacity
//	past-load -sim -verify                # run twice, require identical fingerprints (sweeps too)
//	past-load -sim -cache-sweep           # cache-tier sweep: legacy vs RAM-capped engine vs engine+flash
//	past-load -sim -cache-check           # exit 0 only if the flash tier beats capped RAM alone
//	past-load -sim -ec 4,2                # erasure-coded mode: coded inserts, m-of-n reconstructing lookups
//
// Every mode reads one loadgen.SimConfig, bound from the flags by
// loadgen.ParseCommand. A flag the chosen mode does not read is refused
// with exit 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"past/internal/daemon"
	"past/internal/experiments"
	"past/internal/loadgen"
)

func main() {
	cmd, err := loadgen.ParseCommand(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "past-load: %v\n", err)
		os.Exit(2)
	}
	switch cmd.Mode {
	case "cache-sweep", "cache-check":
		runSweep(cmd, experiments.CacheRates, experiments.CacheModes,
			experiments.RenderCacheRate, experiments.CheckCacheRate)
	case "sweep", "check":
		runSweep(cmd, experiments.OverloadRates, experiments.ShedModes,
			experiments.RenderOverload, experiments.CheckOverload)
	case "sim":
		res, err := loadgen.RunSim(cmd.Sim)
		if err != nil {
			log.Fatalf("past-load: %v", err)
		}
		report(res, cmd.Sim.SLO)
		if cmd.Verify {
			again, err := loadgen.RunSim(cmd.Sim)
			if err != nil {
				log.Fatalf("past-load: verify rerun: %v", err)
			}
			verify(res.Fingerprint, again.Fingerprint)
		}
	case "live":
		tr, err := daemon.NewClient()
		if err != nil {
			log.Fatalf("past-load: %v", err)
		}
		defer tr.Close()
		res, err := loadgen.Run(cmd.Sim, cmd.Conc, loadgen.AddrClient{T: tr, Addr: cmd.Addr})
		if err != nil {
			log.Fatalf("past-load: %v", err)
		}
		report(res, cmd.Sim.SLO)
	}
}

func report(res *loadgen.Result, slo time.Duration) {
	fmt.Println(res)
	fmt.Printf("goodput %.1f req/s (SLO %v)  p50 %v  p99 %v  p99.9 %v\n",
		res.Goodput(), slo,
		res.P(50).Round(time.Microsecond),
		res.P(99).Round(time.Microsecond),
		res.P(99.9).Round(time.Microsecond))
	if c := res.Cache; c.FragHits > 0 || c.Reconstructs > 0 {
		fmt.Printf("ec: %d reconstructions from %d fragment-level hits (%d corrupt copies dropped)\n",
			c.Reconstructs, c.FragHits, c.FragCRCDrops)
	}
	if res.Fingerprint != "" {
		fmt.Printf("fingerprint: %s\n", res.Fingerprint)
	}
}

// verify exits 1 unless a rerun reproduced the first run's fingerprint.
func verify(first, again string) {
	if again != first {
		fmt.Printf("VERIFY: FAIL — fingerprints differ\n  %s\n  %s\n", first, again)
		os.Exit(1)
	}
	fmt.Printf("VERIFY: ok — rerun reproduced fingerprint %s\n", first)
}

// runSweep runs one of the sweeps around cmd's run and prints its
// table; under a check mode it also asserts the sweep's property and
// sets the exit status accordingly.
func runSweep(cmd loadgen.Command, mults []float64, modes []experiments.Mode,
	render func(*experiments.SweepResult) string,
	check func(*experiments.SweepResult) (string, error)) {
	res, err := experiments.RunSweep(cmd.Sim, mults, modes)
	if err != nil {
		log.Fatalf("past-load: %v", err)
	}
	fmt.Print(render(res))
	if cmd.Mode == "check" || cmd.Mode == "cache-check" {
		ok, err := check(res)
		if err != nil {
			fmt.Printf("CHECK: FAIL — %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("CHECK: ok — %s\n", ok)
	}
	if cmd.Verify {
		again, err := experiments.RunSweep(cmd.Sim, mults, modes)
		if err != nil {
			log.Fatalf("past-load: verify rerun: %v", err)
		}
		verify(res.Fingerprint, again.Fingerprint)
	}
}
