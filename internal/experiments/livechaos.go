package experiments

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"past/internal/cluster"
	"past/internal/fleetobs"
	"past/internal/obs"
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

// LiveChaosConfig parameterizes one live-fleet chaos run.
type LiveChaosConfig struct {
	// Nodes is the fleet size. Default 10.
	Nodes int
	// K is the replication factor. Default 3.
	K int
	// Seed fixes node identities, the fault schedule, and the traffic.
	// Default 1.
	Seed int64
	// Scenario is the fault mix (cluster.Scenario*). Default "mixed".
	Scenario string
	// Rounds is the number of fault rounds. Default 6.
	Rounds int
	// KillRate is the fraction of the fleet disturbed per round.
	// Default 0.1 (at least one victim per round).
	KillRate float64
	// FilesPerRound is the insert batch before each round. Default 6.
	FilesPerRound int
	// Duration, when nonzero, bounds the run's wall-clock; rounds not
	// started by then are skipped (and the run reports FAIL, since the
	// plan was not delivered).
	Duration time.Duration
	// Check enables the live invariant audit and acked-write
	// verification after every round.
	Check bool
	// EC, when non-empty ("m,n"), runs the fleet in erasure-coded
	// storage mode; with Check on, the fragment-loss invariant is
	// audited alongside the replica invariants.
	EC string
	// ECRepairBudget caps each daemon's per-pass repair bytes
	// (empty: uncapped).
	ECRepairBudget string
	// Dir is the base directory for node data and captured logs
	// (empty: temp, removed on success unless Keep).
	Dir string
	// Keep retains the base directory even on success.
	Keep bool
	// Command overrides how daemons launch (default: self-exec).
	Command cluster.Command
	// Out receives narration (default: discard).
	Out io.Writer
	// Events receives the JSONL event stream (nil: none).
	Events *obs.EventLog
}

func (c LiveChaosConfig) withDefaults() LiveChaosConfig {
	if c.Nodes == 0 {
		c.Nodes = 10
	}
	if c.K == 0 {
		c.K = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scenario == "" {
		c.Scenario = cluster.ScenarioMixed
	}
	if c.Rounds == 0 {
		c.Rounds = 6
	}
	if c.KillRate == 0 {
		c.KillRate = 0.1
	}
	if c.FilesPerRound == 0 {
		c.FilesPerRound = 6
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// LiveChaosResult is one run's outcome. Scenario carries the
// seed-stable summary; NodeLives/NodeRestarts the per-node fate table;
// Dir the retained artifact directory ("" when cleaned up).
type LiveChaosResult struct {
	Scenario     *cluster.ScenarioResult
	NodeLives    []int
	NodeRestarts []int
	Dir          string
}

// RunLiveChaos boots the fleet, runs the seeded scenario, and tears the
// fleet down. On success a temp base directory is removed (unless
// cfg.Keep); on failure it is always retained so the per-node logs can
// be read.
func RunLiveChaos(cfg LiveChaosConfig) (*LiveChaosResult, error) {
	cfg = cfg.withDefaults()
	cl, err := cluster.Start(cluster.Config{
		Nodes:          cfg.Nodes,
		Seed:           cfg.Seed,
		K:              cfg.K,
		EC:             cfg.EC,
		ECRepairBudget: cfg.ECRepairBudget,
		Dir:            cfg.Dir,
		Command:        cfg.Command,
		Out:            cfg.Out,
		Events:         cfg.Events,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	scfg := cluster.ScenarioConfig{
		Scenario:      cfg.Scenario,
		Rounds:        cfg.Rounds,
		KillRate:      cfg.KillRate,
		FilesPerRound: cfg.FilesPerRound,
		Seed:          cfg.Seed,
		NoCheck:       !cfg.Check,
		Out:           cfg.Out,
	}
	if cfg.EC != "" {
		scfg.SLOs = fleetobs.ECScenarioSLOs()
	}
	if cfg.Duration > 0 {
		scfg.Deadline = time.Now().Add(cfg.Duration)
	}
	sres, err := cluster.RunScenario(cl, scfg)
	if err != nil {
		return nil, fmt.Errorf("live chaos (logs under %s): %w", cl.Dir(), err)
	}

	res := &LiveChaosResult{Scenario: sres, Dir: cl.Dir()}
	for _, p := range cl.Procs {
		res.NodeLives = append(res.NodeLives, p.Lives)
		res.NodeRestarts = append(res.NodeRestarts, p.Restarts)
	}
	if cl.TempDir() && sres.Passed() && !cfg.Keep {
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
