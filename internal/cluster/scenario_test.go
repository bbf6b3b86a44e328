package cluster_test

import (
	"bytes"
	"strings"
	"testing"

	"past/internal/cluster"
	"past/internal/obs"
)

// TestRunScenarioSmall drives the full scenario runner against a real
// 5-process fleet: seeded faults with restarts, fsck after every life,
// convergence checks, and acked-write verification — and pins the
// summary to the value derivable from the plan alone, which is what
// makes repeated same-seed runs byte-identical.
func TestRunScenarioSmall(t *testing.T) {
	var events bytes.Buffer
	log := obs.NewEventLog(&events)
	c := startFleet(t, cluster.Config{Nodes: 5, Seed: 11, Events: log})

	scfg := cluster.ScenarioConfig{
		Scenario: cluster.ScenarioMixed,
		Rounds:   2,
		KillRate: 0.2,
	}
	res, err := cluster.RunScenario(c, scfg)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("scenario failed:\n%s", res)
	}

	// The summary must be derivable from the plan alone — that is the
	// seed-stability contract: any two passing same-seed runs agree.
	plan, err := cluster.PlanFaults(scfg.Scenario, 5, scfg.Rounds, scfg.KillRate, 11)
	if err != nil {
		t.Fatal(err)
	}
	expect := &cluster.ScenarioResult{
		Scenario: scfg.Scenario,
		Nodes:    5,
		K:        3,
		Seed:     11,
		Rounds:   scfg.Rounds,
		PlanFP:   cluster.PlanFingerprint(plan),
		Checked:  true,
	}
	for _, f := range plan {
		if f.Kind == cluster.FaultKill {
			expect.PlannedKills++
		} else {
			expect.PlannedTerms++
		}
	}
	expect.RoundsRun = expect.Rounds
	expect.Kills, expect.Terms = expect.PlannedKills, expect.PlannedTerms
	if got, want := res.Summary(), expect.Summary(); got != want {
		t.Fatalf("summary not derivable from the plan:\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(res.Summary(), "verdict=PASS") {
		t.Fatalf("summary missing verdict: %s", res.Summary())
	}

	if err := log.Close(); err != nil {
		t.Fatalf("event log: %v", err)
	}
	evs, err := obs.ReadEvents(&events)
	if err != nil {
		t.Fatalf("event stream unparseable: %v", err)
	}
	kinds := obs.CountByKind(evs)
	if kinds["fault"] < len(plan) {
		t.Fatalf("want >= %d fault events (plus restarts), got %d", len(plan), kinds["fault"])
	}
	if kinds["summary"] != 1 {
		t.Fatalf("want 1 summary event, got %d", kinds["summary"])
	}
	if kinds["violation"] != 0 {
		t.Fatalf("want 0 violation events, got %d", kinds["violation"])
	}
	// Every round scraped the fleet's registries and emitted its
	// aggregated window as a stats event carrying the scenario counters
	// the SLOs evaluate.
	if kinds["stats"] != res.RoundsRun {
		t.Fatalf("want %d stats events (one per round), got %d", res.RoundsRun, kinds["stats"])
	}
	for _, e := range evs {
		if e.Kind != "stats" {
			continue
		}
		if e.Counters == nil || e.Counters["scenario_rounds_total"] != 1 {
			t.Fatalf("stats event lacks the round marker: %+v", e)
		}
		if e.Counters["scenario_acked_total"] <= 0 {
			t.Fatalf("stats event saw no acked writes: %+v", e)
		}
	}

	// The SLO layer evaluated one window per round, and a passing run
	// renders the deterministic all-clear burn lines in the report (but
	// never in the byte-pinned Summary).
	if len(res.SLO) == 0 {
		t.Fatal("result carries no SLO burns")
	}
	report := res.String()
	for _, burn := range res.SLO {
		if burn.Windows != res.RoundsRun {
			t.Fatalf("slo %s evaluated %d windows, want %d", burn.Objective.Name, burn.Windows, res.RoundsRun)
		}
		if !burn.OK() {
			t.Fatalf("passing scenario burned an SLO: %s", burn.Line())
		}
		if !strings.Contains(report, burn.Line()) {
			t.Fatalf("report lacks burn line %q:\n%s", burn.Line(), report)
		}
		if !strings.Contains(burn.Line(), "breaches=0") {
			t.Fatalf("passing run's burn line is not the stable all-clear: %s", burn.Line())
		}
	}
	if strings.Contains(res.Summary(), "slo ") {
		t.Fatal("SLO lines leaked into the byte-pinned Summary")
	}

	// Fault rounds restarted their victims: lives beyond the first.
	restarts := 0
	for _, p := range c.Procs {
		restarts += p.Restarts
	}
	if restarts != len(plan) {
		t.Fatalf("want %d restarts, got %d", len(plan), restarts)
	}
}

// synthResult builds the result a PASSING run with this configuration
// must produce — every field of the stable render is a function of the
// plan.
func synthResult(t *testing.T, nodes, rounds int, killRate float64, seed int64) *cluster.ScenarioResult {
	t.Helper()
	plan, err := cluster.PlanFaults(cluster.ScenarioMixed, nodes, rounds, killRate, seed)
	if err != nil {
		t.Fatal(err)
	}
	r := &cluster.ScenarioResult{
		Scenario: cluster.ScenarioMixed,
		Nodes:    nodes,
		K:        3,
		Seed:     seed,
		Rounds:   rounds,
		PlanFP:   cluster.PlanFingerprint(plan),
		Checked:  true,
	}
	r.NodeLives = make([]int, nodes)
	r.NodeRestarts = make([]int, nodes)
	for i := range r.NodeLives {
		r.NodeLives[i] = 1
	}
	for _, f := range plan {
		if f.Kind == cluster.FaultKill {
			r.PlannedKills++
		} else {
			r.PlannedTerms++
		}
		r.NodeLives[f.Node]++
		r.NodeRestarts[f.Node]++
	}
	r.RoundsRun, r.Kills, r.Terms = rounds, r.PlannedKills, r.PlannedTerms
	return r
}

// stableRender returns the seed-stable portion of the render: what sits
// above the "---" rule.
func stableRender(r *cluster.ScenarioResult) string {
	stable, _, _ := strings.Cut(r.String(), "---\n")
	return stable
}

func TestLiveChaosStableRender(t *testing.T) {
	t.Parallel()
	a := synthResult(t, 10, 6, 0.1, 1)
	b := synthResult(t, 10, 6, 0.1, 1)
	if sa, sb := stableRender(a), stableRender(b); sa != sb {
		t.Fatalf("same seed renders differently:\n%s\nvs\n%s", sa, sb)
	}
	c := synthResult(t, 10, 6, 0.1, 2)
	if stableRender(a) == stableRender(c) {
		t.Fatal("different seeds render identically")
	}
	if !a.Passed() {
		t.Fatal("synthetic passing run does not pass")
	}
	stable := stableRender(a)
	if !strings.Contains(stable, "verdict=PASS") {
		t.Fatalf("stable render missing verdict:\n%s", stable)
	}
	if !strings.Contains(stable, "plan="+a.PlanFP) {
		t.Fatalf("stable render missing plan fingerprint:\n%s", stable)
	}
	// The run-variable portion stays below the rule.
	if strings.Contains(stable, "elapsed") {
		t.Fatalf("stable render leaks wall-clock detail:\n%s", stable)
	}
	full := a.String()
	if !strings.Contains(full, "elapsed") || !strings.Contains(full, "---") {
		t.Fatalf("full render missing variable section:\n%s", full)
	}
}
