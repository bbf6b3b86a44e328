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
//	past-chaos -ec-durability -verify   # erasure-coding repair-vs-durability sweep, coded vs replicated, run twice
//	past-chaos -crash                   # storage crash soak: kill a logstore mid-commit, recover, verify
//	past-chaos -crash -crash-lives 10 -crash-ops 500 -crash-dir /tmp/ls -keep
//
// The run is deterministic: the same flags always produce the same
// fault timeline, the same fingerprint, and the same verdict — with or
// without tracing and event streaming, which are observation-only. Exit
// status is 0 only if every invariant held.
//
// The flags bind into one experiments.ChaosCommand through
// experiments.ParseChaosCommand. A flag the chosen mode does not read
// is refused with exit 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"past/internal/experiments"
	"past/internal/obs"
)

func main() {
	cmd, err := experiments.ParseChaosCommand(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	code := 0
	if err == nil {
		code, err = runCommand(os.Stdout, cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "past-chaos:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// runCommand runs cmd's mode, writes its report to w, and returns the
// process exit code; an error means the run itself failed.
func runCommand(w *os.File, cmd experiments.ChaosCommand) (int, error) {
	switch cmd.Mode {
	case "ec-durability":
		return runECDurability(w, cmd.EC, cmd.Verify)
	case "crash":
		return runCrashSoak(w, cmd.Crash, cmd.Keep)
	case "check-events":
		return checkEvents(w, cmd.CheckEvents)
	}
	cfg := cmd.Soak
	var evFile *os.File
	if cmd.EventsOut != "" {
		f, err := os.Create(cmd.EventsOut)
		if err != nil {
			return 0, err
		}
		evFile, cfg.Events = f, obs.NewEventLog(f)
	}
	var code int
	var err error
	if cmd.Mode == "compare" {
		code, err = runCompare(w, cfg)
	} else {
		code, err = run(w, cfg, cmd.Verify)
	}
	if evFile != nil {
		if cerr := cfg.Events.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("event log: %w", cerr)
		}
		if cerr := evFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err == nil {
			fmt.Fprintf(w, "wrote %d events to %s\n", cfg.Events.Count(), cmd.EventsOut)
		}
	}
	return code, err
}

// runECDurability runs the repair-rate-vs-durability sweep (section
// 3.6's trade-off: coded fragments plus lazy bandwidth-capped repair
// against k-way replication at equal storage overhead) and asserts its
// acceptance properties.
func runECDurability(w *os.File, cfg experiments.ECDurabilityConfig, verify bool) (int, error) {
	r, err := experiments.RunECDurability(cfg)
	if err != nil {
		return 0, err
	}
	fmt.Fprint(w, experiments.RenderECDurability(r))
	if verify {
		r2, err := experiments.RunECDurability(cfg)
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
