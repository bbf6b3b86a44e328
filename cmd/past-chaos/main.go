// Command past-chaos runs the fault-injection soak: a PAST cluster is
// driven through a seeded schedule of message loss, duplication,
// latency, a network partition, and node crash/recovery, with the
// storage invariants checked every virtual tick and full convergence
// asserted after the faults lift. Only the loss rate is a flag; the
// rest of the schedule (k=3, 5% duplication, 5 ms latency, a crash
// every 3 ticks for 2 ticks, a 20% partition over ticks 4-6, 4 heal
// rounds) is fixed in internal/experiments/soak.go.
//
// Usage:
//
//	past-chaos                          # default soak, seed 1
//	past-chaos -seed 7 -ticks 30        # longer run, different timeline
//	past-chaos -nodes 50 -files 100 -drop 0.1
//	past-chaos -seed 7 -verify          # run twice, assert identical fingerprints
//	past-chaos -resilience              # soak with per-hop reroute and partial inserts on
//	past-chaos -compare                 # same schedule, layer off vs on, side by side
//	past-chaos -trace 4 -events-out run.jsonl   # trace every 4th op, stream JSONL events
//	past-chaos -admit-rate 5 -events-out run.jsonl   # soak behind admission control; sheds stream as "overload" events
//	past-chaos -check-events run.jsonl  # validate and summarize an event stream (the fault log among them)
//	past-chaos -ec-durability           # erasure-coding repair-vs-durability sweep, coded vs replicated
//	past-chaos -crash                   # storage crash soak: kill a logstore mid-commit, recover, verify
//	past-chaos -crash -crash-lives 10 -crash-ops 500 -crash-dir /tmp/ls -keep
//
// The run is deterministic: the same flags always produce the same
// fault timeline, the same fingerprint, and the same verdict — with or
// without tracing and event streaming, which are observation-only. Exit
// status is 0 only if every invariant held.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"past/internal/admit"
	"past/internal/experiments"
	"past/internal/obs"
)

// The soak's admission controller, when -admit-rate turns it on.
const admitBurst, admitDepth = 4, 8

func main() {
	var (
		nodes   = flag.Int("nodes", 0, "cluster size (default 30)")
		files   = flag.Int("files", 0, "files to insert before the faults start (default 40)")
		seed    = flag.Int64("seed", 1, "schedule seed")
		ticks   = flag.Int("ticks", 0, "fault-phase length in virtual ticks (default 12)")
		drop    = flag.Float64("drop", 0, "per-message drop probability (default 0.05)")
		verify  = flag.Bool("verify", false, "run the soak twice and require identical fingerprints")
		resil   = flag.Bool("resilience", false, "enable the resilience layer: per-hop reroute around dead next hops, and partial inserts (off: fail-fast routing)")
		compare = flag.Bool("compare", false, "run the schedule with the resilience layer off and on and compare")
		trace   = flag.Int("trace", 0, "sample every Nth client operation for a per-hop route trace (0: off)")
		evOut   = flag.String("events-out", "", "write the structured JSONL event stream to this file")
		evCheck = flag.String("check-events", "", "validate a JSONL event stream and print a summary (no soak runs)")

		admitRate = flag.Float64("admit-rate", 0, "put every node behind admission control at this rate in req/s (burst 4, queue depth 8); rejections become \"overload\" events (0: off)")

		ecDur = flag.Bool("ec-durability", false, "run the erasure-coding repair-vs-durability sweep instead of the network soak")

		crash      = flag.Bool("crash", false, "run the storage crash soak instead of the network soak")
		crashLives = flag.Int("crash-lives", 5, "crash soak: kill/recover cycles")
		crashOps   = flag.Int("crash-ops", 200, "crash soak: mutations per life")
		crashDir   = flag.String("crash-dir", "", "crash soak: logstore directory (empty: a fresh temp dir)")
		keep       = flag.Bool("keep", false, "crash soak: keep the store directory for inspection (e.g. pastctl fsck)")
	)
	flag.Parse()

	if *ecDur {
		code, err := runECDurability(os.Stdout, *seed, *verify)
		if err != nil {
			fmt.Fprintln(os.Stderr, "past-chaos:", err)
			os.Exit(2)
		}
		os.Exit(code)
	}

	if *crash {
		code, err := runCrashSoak(os.Stdout, *seed, *crashLives, *crashOps, *crashDir, *keep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "past-chaos:", err)
			os.Exit(2)
		}
		os.Exit(code)
	}

	if *evCheck != "" {
		code, err := checkEvents(os.Stdout, *evCheck)
		if err != nil {
			fmt.Fprintln(os.Stderr, "past-chaos:", err)
			os.Exit(2)
		}
		os.Exit(code)
	}

	cfg := experiments.SoakConfig{
		Nodes: *nodes, Files: *files, Seed: *seed, Ticks: *ticks, Drop: *drop,
		Resilience: *resil, TraceEvery: *trace,
	}
	if *admitRate > 0 {
		cfg.Admit = &admit.Config{Rate: *admitRate, Burst: admitBurst, Depth: admitDepth}
	}
	var evFile *os.File
	if *evOut != "" {
		f, err := os.Create(*evOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "past-chaos:", err)
			os.Exit(2)
		}
		evFile = f
		cfg.Events = obs.NewEventLog(f)
	}
	var code int
	var err error
	if *compare {
		code, err = runCompare(os.Stdout, cfg)
	} else {
		code, err = run(os.Stdout, cfg, *verify)
	}
	if evFile != nil {
		if cerr := cfg.Events.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("event log: %w", cerr)
		}
		if cerr := evFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err == nil {
			fmt.Printf("wrote %d events to %s\n", cfg.Events.Count(), *evOut)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "past-chaos:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// runECDurability runs the repair-rate-vs-durability sweep (section
// 3.6's trade-off: coded fragments plus lazy bandwidth-capped repair
// against k-way replication at equal storage overhead) and asserts its
// acceptance properties.
func runECDurability(w *os.File, seed int64, verify bool) (int, error) {
	r, err := experiments.RunECDurability(experiments.ECDurabilityConfig{Seed: seed})
	if err != nil {
		return 0, err
	}
	fmt.Fprint(w, experiments.RenderECDurability(r))
	if verify {
		r2, err := experiments.RunECDurability(experiments.ECDurabilityConfig{Seed: seed})
		if err != nil {
			return 0, fmt.Errorf("verify rerun: %w", err)
		}
		if r2.Fingerprint != r.Fingerprint {
			fmt.Fprintf(w, "VERIFY: FAIL — fingerprints differ\n  %s\n  %s\n", r.Fingerprint, r2.Fingerprint)
			return 1, nil
		}
		fmt.Fprintf(w, "VERIFY: ok — rerun reproduced fingerprint %s\n", r2.Fingerprint)
	}
	if err := experiments.CheckECDurability(r); err != nil {
		fmt.Fprintf(w, "CHECK: FAIL — %v\n", err)
		return 1, nil
	}
	fmt.Fprintln(w, "CHECK: ok")
	return 0, nil
}

// checkEvents validates a JSONL event stream file and prints a per-kind
// summary. Exit code 1 signals a malformed stream.
func checkEvents(w *os.File, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	evs, err := obs.ReadEvents(f)
	if err != nil {
		fmt.Fprintf(w, "CHECK: FAIL — %v (after %d valid events)\n", err, len(evs))
		return 1, nil
	}
	fmt.Fprintf(w, "%s: %d events\n", path, len(evs))
	byKind := obs.CountByKind(evs)
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-10s %d\n", k, byKind[k])
	}
	fmt.Fprintln(w, "CHECK: ok")
	return 0, nil
}

// run executes the soak (twice under verify), writes the report, and
// returns the process exit code.
func run(w *os.File, cfg experiments.SoakConfig, verify bool) (int, error) {
	r, err := experiments.RunSoak(cfg)
	if err != nil {
		return 0, err
	}
	fmt.Fprint(w, experiments.RenderSoak(r))
	if verify {
		r2, err := experiments.RunSoak(cfg)
		if err != nil {
			return 0, fmt.Errorf("verify rerun: %w", err)
		}
		if r2.Fingerprint != r.Fingerprint {
			fmt.Fprintf(w, "VERIFY: FAIL — fingerprints differ\n  %s\n  %s\n", r.Fingerprint, r2.Fingerprint)
			return 1, nil
		}
		fmt.Fprintf(w, "VERIFY: ok — rerun reproduced fingerprint %s\n", r2.Fingerprint)
	}
	if !r.OK() {
		return 1, nil
	}
	return 0, nil
}

// runCompare executes the off/on pair over one schedule and reports
// them side by side. Exit status is 0 only if both runs held every
// invariant and the layer did not make fault-phase lookups worse.
func runCompare(w *os.File, cfg experiments.SoakConfig) (int, error) {
	c, err := experiments.CompareSoak(cfg)
	if err != nil {
		return 0, err
	}
	fmt.Fprint(w, experiments.RenderSoakComparison(c))
	if !c.Off.OK() || !c.On.OK() || c.On.FaultLookupRate() < c.Off.FaultLookupRate() {
		return 1, nil
	}
	return 0, nil
}
