package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"past/internal/fleetobs"
	"past/internal/id"
	"past/internal/obs"
)

// Fault kinds at the process level.
const (
	FaultKill = "sigkill" // crash: no leave, logstore recovery on restart
	FaultTerm = "sigterm" // graceful: offload replicas, clean store close
)

// Fault is one planned process-level fault: in round Round, node Node
// receives Kind and is then restarted (rejoining through a live peer).
type Fault struct {
	Round int
	Node  int
	Kind  string
}

// Scenario names.
const (
	ScenarioMixed    = "mixed"    // seeded mix of sigkill and sigterm
	ScenarioKill     = "kill"     // sigkill only
	ScenarioGraceful = "graceful" // sigterm only
	ScenarioRolling  = "rolling"  // staggered rolling restart, one node per round in index order
)

// PlanFaults derives the deterministic fault schedule: same scenario,
// node count, rounds, kill rate, and seed — same plan, byte for byte.
// Per round it disturbs max(1, round(killRate*nodes)) distinct victims
// (capped at nodes-1 so the fleet always keeps a live member).
func PlanFaults(scenario string, nodes, rounds int, killRate float64, seed int64) ([]Fault, error) {
	if nodes <= 1 {
		return nil, fmt.Errorf("cluster: fault plans need at least 2 nodes")
	}
	rng := rand.New(rand.NewSource(seed))
	var plan []Fault
	switch scenario {
	case ScenarioRolling:
		for r := 0; r < rounds; r++ {
			plan = append(plan, Fault{Round: r, Node: r % nodes, Kind: FaultTerm})
		}
	case ScenarioMixed, ScenarioKill, ScenarioGraceful:
		victims := int(math.Round(killRate * float64(nodes)))
		if victims < 1 {
			victims = 1
		}
		if victims > nodes-1 {
			victims = nodes - 1
		}
		for r := 0; r < rounds; r++ {
			perm := rng.Perm(nodes)
			for v := 0; v < victims; v++ {
				kind := FaultKill
				switch scenario {
				case ScenarioGraceful:
					kind = FaultTerm
				case ScenarioMixed:
					if rng.Intn(2) == 1 {
						kind = FaultTerm
					}
				}
				plan = append(plan, Fault{Round: r, Node: perm[v], Kind: kind})
			}
		}
	default:
		return nil, fmt.Errorf("cluster: unknown scenario %q (want %s, %s, %s, or %s)",
			scenario, ScenarioMixed, ScenarioKill, ScenarioGraceful, ScenarioRolling)
	}
	return plan, nil
}

// PlanFingerprint hashes a fault plan into a short stable identifier.
func PlanFingerprint(plan []Fault) string {
	h := sha256.New()
	for _, f := range plan {
		fmt.Fprintf(h, "%d:%d:%s\n", f.Round, f.Node, f.Kind)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

const (
	// payloadBytes caps the size of a scenario's deterministic payloads.
	payloadBytes = 2048
	// filesPerRound new files are inserted before each round, and once
	// more before round 0.
	filesPerRound = 6
	// convergeTimeout bounds the post-round repair wait.
	convergeTimeout = 60 * time.Second
)

// ScenarioConfig shapes a live-chaos run against a started Cluster.
type ScenarioConfig struct {
	// Scenario picks the fault mix (default ScenarioMixed).
	Scenario string
	// Rounds is the number of fault rounds (default 6).
	Rounds int
	// KillRate is the fraction of the fleet disturbed per round
	// (default 0.1; at least one victim per round regardless).
	KillRate float64
	// Deadline, when nonzero, stops scheduling new rounds past it (the
	// CLI's -duration). Cutting a run short is recorded in the result
	// and forfeits summary determinism.
	Deadline time.Time
	// NoCheck skips the live invariant audit and acked-write
	// verification: the fleet is churned but not judged (the CLI
	// without -check). Fsck after every life still runs.
	NoCheck bool
}

func (s *ScenarioConfig) withDefaults() {
	if s.Scenario == "" {
		s.Scenario = ScenarioMixed
	}
	if s.Rounds <= 0 {
		s.Rounds = 6
	}
	if s.KillRate <= 0 {
		s.KillRate = 0.1
	}
}

// ackedWrite is one insert the fleet acknowledged: the durability
// contract the checker holds it to across every subsequent fault.
type ackedWrite struct {
	file id.File
	name string
	sum  [32]byte
}

// ScenarioResult aggregates a run. Summary() renders only the fields
// that are deterministic under a fixed seed when the run passes, so
// repeated passing runs produce identical summaries.
type ScenarioResult struct {
	Scenario        string
	Nodes           int
	K               int
	Seed            int64
	Rounds          int // planned
	RoundsRun       int
	PlanFP          string
	PlannedKills    int
	PlannedTerms    int
	Kills           int // faults actually delivered
	Terms           int
	Restarts        int
	Inserted        int // inserts attempted
	Acked           int // inserts acknowledged
	LostAcked       int // acked writes that later failed lookup
	CorruptAcked    int // acked writes that came back with different bytes
	FsckErrors      int
	Checked         bool // the invariant audit ran (false: churn only)
	Violations      int  // invariant violations still standing after convergence
	ViolationDetail []string
	// SLO is the per-objective burn state over the run's round windows.
	// On a passing run each line is deterministic under a fixed seed
	// (breaches=0, burn=0.00), so it may appear in seed-stable reports.
	SLO     []fleetobs.Burn
	Elapsed time.Duration
	// NodeLives and NodeRestarts are each node's process starts and
	// restarts after faults, by node index.
	NodeLives, NodeRestarts []int
	// Dir is the retained artifact directory ("" when Run removed it).
	Dir string
}

// Passed reports the run's verdict.
func (r *ScenarioResult) Passed() bool {
	return r.RoundsRun == r.Rounds &&
		r.Kills+r.Terms == r.PlannedKills+r.PlannedTerms &&
		r.LostAcked == 0 && r.CorruptAcked == 0 &&
		r.FsckErrors == 0 && r.Violations == 0
}

// Summary is the stable scenario summary: identical across runs with
// the same seed whenever both runs pass.
func (r *ScenarioResult) Summary() string {
	verdict := "PASS"
	if !r.Passed() {
		verdict = "FAIL"
	}
	check := "on"
	if !r.Checked {
		check = "off"
	}
	return fmt.Sprintf(
		"scenario=%s nodes=%d k=%d seed=%d rounds=%d plan=%s faults=%d (kill=%d term=%d) check=%s acked-loss=%d corrupt=%d fsck-errors=%d violations=%d verdict=%s",
		r.Scenario, r.Nodes, r.K, r.Seed, r.Rounds, r.PlanFP,
		r.PlannedKills+r.PlannedTerms, r.PlannedKills, r.PlannedTerms,
		check, r.LostAcked, r.CorruptAcked, r.FsckErrors, r.Violations, verdict)
}

// String renders the run. Everything above the "---" rule is derivable
// from the seed and plan alone, so two passing runs with the same
// configuration render it identically; wall-clock details live below
// the rule.
func (r *ScenarioResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "live chaos — real process fleet\n")
	fmt.Fprintf(&b, "%s\n", r.Summary())
	fmt.Fprintf(&b, "node  lives  restarts\n")
	for i := range r.NodeLives {
		fmt.Fprintf(&b, "%4d  %5d  %8d\n", i, r.NodeLives[i], r.NodeRestarts[i])
	}
	// SLO burn lines are deterministic on passing runs (breaches=0,
	// burn=0.00, windows = the planned round count), so they belong to
	// the stable region: a compliance regression changes the comparison
	// summary, exactly like a lost write would.
	for _, burn := range r.SLO {
		fmt.Fprintf(&b, "%s\n", burn.Line())
	}
	fmt.Fprintf(&b, "---\n")
	fmt.Fprintf(&b, "rounds run %d/%d, faults delivered %d/%d, inserts %d acked %d, elapsed %v\n",
		r.RoundsRun, r.Rounds, r.Kills+r.Terms, r.PlannedKills+r.PlannedTerms,
		r.Inserted, r.Acked, r.Elapsed.Round(time.Millisecond))
	if r.Dir != "" {
		fmt.Fprintf(&b, "artifacts: %s\n", r.Dir)
	}
	for _, v := range r.ViolationDetail {
		fmt.Fprintf(&b, "violation: %s\n", v)
	}
	return b.String()
}

// Run boots the fleet cfg describes, runs the seeded scenario scfg
// against it, and tears the fleet down. A temp base directory is
// removed after a passing run unless keep is set; otherwise it is
// retained, as the result's Dir, so the per-node logs can be read.
//
// Run spawns the daemons by re-executing the current binary: the
// hosting main (or TestMain) must call MaybeRunDaemon first.
func Run(cfg Config, scfg ScenarioConfig, keep bool) (*ScenarioResult, error) {
	c, err := Start(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	res, err := RunScenario(c, scfg)
	if err != nil {
		return nil, fmt.Errorf("live chaos (logs under %s): %w", c.dir, err)
	}
	res.Dir = c.dir
	if c.tmpDir && res.Passed() && !keep {
		c.Close()
		os.RemoveAll(c.dir)
		res.Dir = ""
	}
	return res, nil
}

// RunScenario executes the seeded fault schedule against the live
// fleet. The cluster's seed drives the schedule, victims, payloads and
// access-point choice. Per round it inserts fresh files through
// rotating access points, delivers the round's process-level faults
// (SIGKILL or SIGTERM, fsck of the victim's store while it is down,
// restart with rejoin), waits for the replica invariants to converge,
// and verifies every acked write is still retrievable byte for byte.
func RunScenario(c *Cluster, cfg ScenarioConfig) (*ScenarioResult, error) {
	cfg.withDefaults()
	seed := c.cfg.Seed
	plan, err := PlanFaults(cfg.Scenario, len(c.Procs), cfg.Rounds, cfg.KillRate, seed)
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{
		Scenario: cfg.Scenario,
		Nodes:    len(c.Procs),
		K:        replicas,
		Seed:     seed,
		Rounds:   cfg.Rounds,
		PlanFP:   PlanFingerprint(plan),
		Checked:  !cfg.NoCheck,
	}
	for _, f := range plan {
		if f.Kind == FaultKill {
			res.PlannedKills++
		} else {
			res.PlannedTerms++
		}
	}
	start := time.Now()
	defer func() { res.Elapsed = time.Since(start) }()

	trafficRng := rand.New(rand.NewSource(seed + 0x74726166)) // payloads + access points
	var acked []ackedWrite

	insertBatch := func(round int) error {
		for j := 0; j < filesPerRound; j++ {
			name := fmt.Sprintf("s%d-r%d-f%d", seed, round, j)
			size := 64 + trafficRng.Intn(payloadBytes-63)
			content := make([]byte, size)
			trafficRng.Read(content)
			res.Inserted++
			var lastErr error
			okInsert := false
			for attempt := 0; attempt < 4 && !okInsert; attempt++ {
				live := c.LiveIndexes()
				if len(live) == 0 {
					return fmt.Errorf("cluster: no live nodes to insert through")
				}
				ap := live[trafficRng.Intn(len(live))]
				fid, err := c.InsertVia(ap, name, content)
				if err != nil {
					lastErr = err
					time.Sleep(150 * time.Millisecond)
					continue
				}
				acked = append(acked, ackedWrite{file: fid, name: name, sum: sha256.Sum256(content)})
				res.Acked++
				okInsert = true
			}
			if !okInsert {
				// Not acked: no durability obligation, but note it.
				fmt.Fprintf(c.cfg.Out, "cluster: insert %s never acked: %v\n", name, lastErr)
			}
		}
		return nil
	}

	// verifyAcked looks every acked write up through a live access
	// point, retrying transient routing failures, and counts writes
	// that are gone or corrupt.
	verifyAcked := func(round int) {
		for _, w := range acked {
			found := false
			var content []byte
			for attempt := 0; attempt < 5; attempt++ {
				live := c.LiveIndexes()
				if len(live) == 0 {
					break
				}
				ap := live[(round+attempt)%len(live)]
				ok, got, err := c.LookupVia(ap, w.file)
				if err == nil && ok {
					found, content = true, got
					break
				}
				time.Sleep(200 * time.Millisecond)
			}
			switch {
			case !found:
				res.LostAcked++
				res.ViolationDetail = append(res.ViolationDetail,
					fmt.Sprintf("round=%d acked write %s (%s) unreachable", round, w.file.Short(), w.name))
				c.event(obs.Event{Kind: "violation", Op: "acked-loss", Tick: round, Detail: w.name})
			case sha256.Sum256(content) != w.sum:
				res.CorruptAcked++
				res.ViolationDetail = append(res.ViolationDetail,
					fmt.Sprintf("round=%d acked write %s (%s) content mismatch", round, w.file.Short(), w.name))
				c.event(obs.Event{Kind: "violation", Op: "acked-corrupt", Tick: round, Detail: w.name})
			}
		}
	}

	// converge polls the live invariant check until it comes back clean
	// or the budget is spent; lingering violations are recorded.
	converge := func(round int) error {
		files := make([]id.File, len(acked))
		for i, w := range acked {
			files[i] = w.file
		}
		deadline := time.Now().Add(convergeTimeout)
		for {
			violations, err := c.CheckInvariants(files, round)
			if err != nil {
				return err
			}
			if len(violations) == 0 {
				return nil
			}
			if time.Now().After(deadline) {
				res.Violations += len(violations)
				for _, v := range violations {
					res.ViolationDetail = append(res.ViolationDetail, v.String())
					c.event(obs.Event{Kind: "violation", Op: string(v.Kind), Tick: round, Node: v.Node.Short(), Detail: v.File.Short()})
				}
				return nil
			}
			time.Sleep(500 * time.Millisecond)
		}
	}

	byRound := make(map[int][]Fault)
	for _, f := range plan {
		byRound[f.Round] = append(byRound[f.Round], f)
	}

	// The fleet observability plane: per round, scrape every live node's
	// registry, delta it against the previous round (restart-aware — a
	// crashed-and-rejoined node's reset registry must not produce
	// negative rates), aggregate the deltas into the round's fleet
	// window, fold in the scenario's own outcome counters, and evaluate
	// the SLOs against the window. The window also rides the event
	// stream as a "stats" event, leaving a queryable metrics timeline
	// next to the fault/violation/tick events.
	slos := fleetobs.DefaultScenarioSLOs()
	if c.cfg.EC != "" {
		slos = fleetobs.ECScenarioSLOs()
	}
	tracker := fleetobs.NewTracker()
	eval := fleetobs.NewEvaluator(slos)
	var prevAcked, prevLost, prevCorrupt, prevViolations int
	scrapeRound := func(round int) {
		var deltas []obs.Snapshot
		scraped := 0
		for _, i := range c.LiveIndexes() {
			_, snap, err := c.ObsReport(i)
			if err != nil {
				continue
			}
			d, _ := tracker.Delta(fmt.Sprintf("node%02d", i), snap)
			deltas = append(deltas, d)
			scraped++
		}
		window := obs.Aggregate(deltas...)
		violations := res.Violations + res.FsckErrors
		window.Set("scenario_rounds_total", 1)
		window.Set("scenario_acked_total", int64(res.Acked-prevAcked))
		window.Set("scenario_acked_lost_total", int64(res.LostAcked-prevLost))
		window.Set("scenario_acked_corrupt_total", int64(res.CorruptAcked-prevCorrupt))
		window.Set("scenario_violations_total", int64(violations-prevViolations))
		prevAcked, prevLost, prevCorrupt, prevViolations =
			res.Acked, res.LostAcked, res.CorruptAcked, violations
		eval.Observe(window)
		c.event(obs.Event{Kind: "stats", Tick: round, N: int64(scraped), Counters: window.Counters})
	}

	for r := 0; r < cfg.Rounds; r++ {
		if !cfg.Deadline.IsZero() && time.Now().After(cfg.Deadline) {
			fmt.Fprintf(c.cfg.Out, "cluster: duration budget spent after %d round(s)\n", r)
			break
		}
		fmt.Fprintf(c.cfg.Out, "cluster: round %d: inserting %d files\n", r, filesPerRound)
		if err := insertBatch(r); err != nil {
			return res, err
		}
		for _, f := range byRound[r] {
			p := c.Procs[f.Node]
			fmt.Fprintf(c.cfg.Out, "cluster: round %d: %s node %d (%s)\n", r, f.Kind, f.Node, p.ID.Short())
			switch f.Kind {
			case FaultKill:
				if err := c.Kill(f.Node); err != nil {
					return res, err
				}
				res.Kills++
			case FaultTerm:
				if err := c.Terminate(f.Node); err != nil {
					return res, err
				}
				res.Terms++
			}
			// The victim's store must verify clean after EVERY life —
			// a clean close for sigterm, a recoverable log for sigkill.
			if err := c.Fsck(f.Node); err != nil {
				res.FsckErrors++
				res.ViolationDetail = append(res.ViolationDetail, err.Error())
				c.event(obs.Event{Kind: "violation", Op: "fsck", Tick: r, Node: p.ID.Short(), Detail: err.Error()})
			}
			if err := c.Restart(f.Node); err != nil {
				return res, err
			}
			res.Restarts++
		}
		if !cfg.NoCheck {
			if err := converge(r); err != nil {
				return res, err
			}
			verifyAcked(r)
		}
		scrapeRound(r)
		res.RoundsRun++
		c.event(obs.Event{Kind: "tick", Tick: r, N: int64(res.Acked), OK: res.LostAcked == 0 && res.Violations == 0})
	}
	for _, p := range c.Procs {
		res.NodeLives = append(res.NodeLives, p.Lives)
		res.NodeRestarts = append(res.NodeRestarts, p.Restarts)
	}
	res.SLO = eval.Burns()
	for _, burn := range res.SLO {
		fmt.Fprintf(c.cfg.Out, "cluster: %s\n", burn.Line())
	}

	c.event(obs.Event{Kind: "summary", Detail: res.Summary(), OK: res.Passed()})
	return res, nil
}
