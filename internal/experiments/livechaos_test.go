package experiments

import (
	"strings"
	"testing"

	"past/internal/cluster"
)

// synthLiveChaos builds the result a PASSING run with this
// configuration must produce — every field of the stable render is a
// function of the plan.
func synthLiveChaos(t *testing.T, nodes, rounds int, killRate float64, seed int64) *LiveChaosResult {
	t.Helper()
	plan, err := cluster.PlanFaults(cluster.ScenarioMixed, nodes, rounds, killRate, seed)
	if err != nil {
		t.Fatal(err)
	}
	s := &cluster.ScenarioResult{
		Scenario: cluster.ScenarioMixed,
		Nodes:    nodes,
		K:        3,
		Seed:     seed,
		Rounds:   rounds,
		PlanFP:   cluster.PlanFingerprint(plan),
		Checked:  true,
	}
	r := &LiveChaosResult{Scenario: s}
	r.NodeLives = make([]int, nodes)
	r.NodeRestarts = make([]int, nodes)
	for i := range r.NodeLives {
		r.NodeLives[i] = 1
	}
	for _, f := range plan {
		if f.Kind == cluster.FaultKill {
			s.PlannedKills++
		} else {
			s.PlannedTerms++
		}
		r.NodeLives[f.Node]++
		r.NodeRestarts[f.Node]++
	}
	s.RoundsRun, s.Kills, s.Terms = rounds, s.PlannedKills, s.PlannedTerms
	return r
}

// stableLiveChaos returns the seed-stable portion of the render: what
// sits above the "---" rule.
func stableLiveChaos(r *LiveChaosResult) string {
	stable, _, _ := strings.Cut(RenderLiveChaos(r), "---\n")
	return stable
}

func TestLiveChaosStableRender(t *testing.T) {
	t.Parallel()
	a := synthLiveChaos(t, 10, 6, 0.1, 1)
	b := synthLiveChaos(t, 10, 6, 0.1, 1)
	if sa, sb := stableLiveChaos(a), stableLiveChaos(b); sa != sb {
		t.Fatalf("same seed renders differently:\n%s\nvs\n%s", sa, sb)
	}
	c := synthLiveChaos(t, 10, 6, 0.1, 2)
	if stableLiveChaos(a) == stableLiveChaos(c) {
		t.Fatal("different seeds render identically")
	}
	if !a.Scenario.Passed() {
		t.Fatal("synthetic passing run does not pass")
	}
	stable := stableLiveChaos(a)
	if !strings.Contains(stable, "verdict=PASS") {
		t.Fatalf("stable render missing verdict:\n%s", stable)
	}
	if !strings.Contains(stable, "plan="+a.Scenario.PlanFP) {
		t.Fatalf("stable render missing plan fingerprint:\n%s", stable)
	}
	// The run-variable portion stays below the rule.
	if strings.Contains(stable, "elapsed") {
		t.Fatalf("stable render leaks wall-clock detail:\n%s", stable)
	}
	full := RenderLiveChaos(a)
	if !strings.Contains(full, "elapsed") || !strings.Contains(full, "---") {
		t.Fatalf("full render missing variable section:\n%s", full)
	}
}
