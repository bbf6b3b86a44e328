package experiments

import (
	"fmt"
	"os"
	"strings"
	"time"

	"past/internal/cluster"
)

// Live chaos is the promotion of the emulated chaos soak to real
// processes: the same invariants (replica placement, pointer validity,
// durability of acked writes) audited over a fleet of pastd processes
// taking real signals, with logstore recovery — not simulated state
// restoration — bringing crashed nodes back. It validates that the
// robustness results measured in emulation survive contact with
// address-space isolation, TCP, and the filesystem.
//
// IMPORTANT: RunLiveChaos spawns subprocesses by re-executing the
// current binary; the hosting main (or TestMain) must call
// cluster.MaybeRunDaemon(daemon.Run) first. Tests in this package
// exercise only the deterministic planning/rendering halves.

// LiveChaosResult is one run's outcome. Scenario carries the
// seed-stable summary; NodeLives/NodeRestarts the per-node fate table;
// Dir the retained artifact directory ("" when cleaned up).
type LiveChaosResult struct {
	Scenario     *cluster.ScenarioResult
	NodeLives    []int
	NodeRestarts []int
	Dir          string
}

// RunLiveChaos boots the fleet cfg describes, runs the seeded scenario
// scfg against it, and tears the fleet down. On success a temp base
// directory is removed unless keep is set; on failure it is always
// retained so the per-node logs can be read.
func RunLiveChaos(cfg cluster.Config, scfg cluster.ScenarioConfig, keep bool) (*LiveChaosResult, error) {
	cl, err := cluster.Start(cfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	sres, err := cluster.RunScenario(cl, scfg)
	if err != nil {
		return nil, fmt.Errorf("live chaos (logs under %s): %w", cl.Dir(), err)
	}

	res := &LiveChaosResult{Scenario: sres, Dir: cl.Dir()}
	for _, p := range cl.Procs {
		res.NodeLives = append(res.NodeLives, p.Lives)
		res.NodeRestarts = append(res.NodeRestarts, p.Restarts)
	}
	if cl.TempDir() && sres.Passed() && !keep {
		cl.Close()
		os.RemoveAll(cl.Dir())
		res.Dir = ""
	}
	return res, nil
}

// RenderLiveChaos renders the run. Everything above the "---" rule is
// derivable from the seed and plan alone, so two passing runs with the
// same configuration render it identically; wall-clock details live
// below the rule.
func RenderLiveChaos(r *LiveChaosResult) string {
	var b strings.Builder
	s := r.Scenario
	fmt.Fprintf(&b, "live chaos — real process fleet\n")
	fmt.Fprintf(&b, "%s\n", s.Summary())
	fmt.Fprintf(&b, "node  lives  restarts\n")
	for i := range r.NodeLives {
		fmt.Fprintf(&b, "%4d  %5d  %8d\n", i, r.NodeLives[i], r.NodeRestarts[i])
	}
	// SLO burn lines are deterministic on passing runs (breaches=0,
	// burn=0.00, windows = the planned round count), so they belong to
	// the stable region: a compliance regression changes the comparison
	// summary, exactly like a lost write would.
	for _, burn := range s.SLO {
		fmt.Fprintf(&b, "%s\n", burn.Line())
	}
	fmt.Fprintf(&b, "---\n")
	fmt.Fprintf(&b, "rounds run %d/%d, faults delivered %d/%d, inserts %d acked %d, elapsed %v\n",
		s.RoundsRun, s.Rounds, s.Kills+s.Terms, s.PlannedKills+s.PlannedTerms,
		s.Inserted, s.Acked, s.Elapsed.Round(time.Millisecond))
	if r.Dir != "" {
		fmt.Fprintf(&b, "artifacts: %s\n", r.Dir)
	}
	for _, v := range s.ViolationDetail {
		fmt.Fprintf(&b, "violation: %s\n", v)
	}
	return b.String()
}
