package main

import (
	"fmt"
	"os"

	"past/internal/chaos"
)

// runCrashSoak drives the storage crash-fault harness: repeated
// kill-mid-commit / truncate-tail / reopen cycles against a logstore,
// each recovery checked against the durability oracle, with a final
// fsck pass. Exit code 0 means every invariant held.
func runCrashSoak(w *os.File, cfg chaos.CrashConfig, keep bool) (int, error) {
	if cfg.Dir == "" {
		tmp, err := os.MkdirTemp("", "past-crash-*")
		if err != nil {
			return 0, err
		}
		cfg.Dir = tmp
		if !keep {
			defer os.RemoveAll(tmp)
		}
	}
	fmt.Fprintf(w, "crash soak: seed=%d lives=%d ops/life=%d dir=%s\n", cfg.Seed, cfg.Lives, cfg.OpsPer, cfg.Dir)
	rep, err := chaos.RunCrash(cfg)
	if err != nil {
		fmt.Fprintf(w, "CRASH SOAK: FAIL — %v\n", err)
		return 1, nil
	}
	fmt.Fprintf(w, "  lives recovered      %d/%d\n", rep.RecoveredOK, rep.Lives)
	fmt.Fprintf(w, "  mutations applied    %d\n", rep.Ops)
	fmt.Fprintf(w, "  WAL bytes torn off   %d\n", rep.Truncated)
	fmt.Fprintf(w, "  ops lost to cuts     %d (rolled back by recovery, as expected)\n", rep.LostOps)
	fmt.Fprintf(w, "  final entries        %d\n", rep.FinalEntries)
	fmt.Fprintf(w, "  final fsck           ok\n")
	fmt.Fprintf(w, "  fingerprint          %s\n", rep.Fingerprint)
	if keep {
		fmt.Fprintf(w, "store kept at %s (inspect with: pastctl fsck %s)\n", cfg.Dir, cfg.Dir)
	}
	fmt.Fprintln(w, "CRASH SOAK: ok — every recovery matched the durable prefix")
	return 0, nil
}
