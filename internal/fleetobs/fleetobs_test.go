package fleetobs

import (
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"past/internal/id"
	"past/internal/obs"
	"past/internal/past"
)

func snap(pairs ...any) obs.Snapshot {
	s := obs.Snapshot{Counters: make(map[string]int64)}
	for i := 0; i < len(pairs); i += 2 {
		s.Counters[pairs[i].(string)] = int64(pairs[i+1].(int))
	}
	return s
}

func TestTrackerDelta(t *testing.T) {
	tr := NewTracker()

	// First sighting: the whole snapshot is the window.
	d, restarted := tr.Delta("n0", snap(obs.CtrMsgsIn, 10, obs.CtrLookups, 3))
	if restarted || d.Get(obs.CtrLookups) != 3 {
		t.Fatalf("first sight: delta=%v restarted=%v", d.Counters, restarted)
	}

	// Steady state: plain difference.
	d, restarted = tr.Delta("n0", snap(obs.CtrMsgsIn, 25, obs.CtrLookups, 8))
	if restarted || d.Get(obs.CtrLookups) != 5 || d.Get(obs.CtrMsgsIn) != 15 {
		t.Fatalf("steady: delta=%v restarted=%v", d.Counters, restarted)
	}

	// Reference counter ran backwards: a restart. The delta is the full
	// current snapshot — everything the new life counted — not a
	// poisonous negative difference.
	d, restarted = tr.Delta("n0", snap(obs.CtrMsgsIn, 4, obs.CtrLookups, 2))
	if !restarted || d.Get(obs.CtrLookups) != 2 {
		t.Fatalf("restart: delta=%v restarted=%v", d.Counters, restarted)
	}

	// Keys are independent tracks.
	d, restarted = tr.Delta("n1", snap(obs.CtrMsgsIn, 1, obs.CtrLookups, 1))
	if restarted || d.Get(obs.CtrLookups) != 1 {
		t.Fatalf("independent key: delta=%v restarted=%v", d.Counters, restarted)
	}

	// A busy rejoin can push the fresh life's message counters PAST the
	// old life's before the next poll; a quieter monotonic counter
	// running backwards must still betray the restart.
	tr2 := NewTracker()
	tr2.Delta("n0", snap(obs.CtrMsgsIn, 100, "logstore_wal_appends_total", 50))
	d, restarted = tr2.Delta("n0", snap(obs.CtrMsgsIn, 140, "logstore_wal_appends_total", 7))
	if !restarted || d.Get("logstore_wal_appends_total") != 7 {
		t.Fatalf("masked restart: delta=%v restarted=%v", d.Counters, restarted)
	}
}

func TestObjectiveBreached(t *testing.T) {
	// Latency form: vacuous pass on an idle window, breach only when the
	// quantile clears the threshold.
	lat := Objective{Name: "p99", Quantile: 99, Threshold: 4 * time.Second}
	if lat.Breached(obs.Snapshot{}) {
		t.Error("latency objective breached on an empty window")
	}
	var slow obs.NodeStats
	for i := 0; i < 100; i++ {
		slow.ObserveRPC(10 * time.Second)
	}
	if !lat.Breached(slow.Snapshot()) {
		t.Error("latency objective passed a 10s-per-RPC window")
	}
	var fast obs.NodeStats
	for i := 0; i < 100; i++ {
		fast.ObserveRPC(2 * time.Millisecond)
	}
	if lat.Breached(fast.Snapshot()) {
		t.Error("latency objective breached a 2ms-per-RPC window")
	}

	// Count form (no Total): any bad event breaches.
	cnt := Objective{Name: "violations", Bad: "v_total"}
	if cnt.Breached(snap("v_total", 0)) {
		t.Error("count objective breached at zero")
	}
	if !cnt.Breached(snap("v_total", 1)) {
		t.Error("count objective passed bad=1")
	}

	// Ratio form: vacuous when the denominator is zero.
	ratio := Objective{Name: "loss", Bad: "lost_total", Total: "acked_total", MaxRatio: 0.1}
	if ratio.Breached(snap("lost_total", 5, "acked_total", 0)) {
		t.Error("ratio objective breached with zero denominator")
	}
	if ratio.Breached(snap("lost_total", 1, "acked_total", 100)) {
		t.Error("ratio objective breached at 1% with a 10% budget")
	}
	if !ratio.Breached(snap("lost_total", 11, "acked_total", 100)) {
		t.Error("ratio objective passed at 11% with a 10% budget")
	}
}

func TestBurnRateAndLine(t *testing.T) {
	// No breaches burn zero regardless of budget — including budget 0 —
	// and render the pinned stable suffix scenario summaries rely on.
	clean := Burn{Objective: Objective{Name: "acked-loss", Bad: "lost_total", Total: "acked_total"}, Windows: 12}
	if clean.Rate() != 0 || !clean.OK() {
		t.Fatalf("clean burn: rate=%v ok=%v", clean.Rate(), clean.OK())
	}
	if line := clean.Line(); !strings.Contains(line, "breaches=0   burn=0.00 OK") {
		t.Errorf("clean line %q lacks the stable passing suffix", line)
	}

	// Breach against a zero budget: infinite burn, BREACH.
	hard := Burn{Objective: Objective{Name: "x", Bad: "b_total"}, Windows: 10, Breaches: 1}
	if !math.IsInf(hard.Rate(), 1) || hard.OK() {
		t.Fatalf("zero-budget breach: rate=%v ok=%v", hard.Rate(), hard.OK())
	}
	if line := hard.Line(); !strings.Contains(line, "burn=INF BREACH") {
		t.Errorf("zero-budget line %q", line)
	}

	// Budgeted objective: 1 breach in 10 windows against a 10% budget is
	// exactly burn 1.00 — at the edge, still OK; 2 breaches doubles it.
	soft := Burn{Objective: Objective{Name: "p99", Quantile: 99, Threshold: time.Second, Budget: 0.1}, Windows: 10, Breaches: 1}
	if soft.Rate() != 1 || !soft.OK() {
		t.Fatalf("at-budget: rate=%v ok=%v", soft.Rate(), soft.OK())
	}
	soft.Breaches = 2
	if soft.Rate() != 2 || soft.OK() {
		t.Fatalf("over-budget: rate=%v ok=%v", soft.Rate(), soft.OK())
	}
	if line := soft.Line(); !strings.Contains(line, "burn=2.00 BREACH") {
		t.Errorf("over-budget line %q", line)
	}
}

func TestEvaluator(t *testing.T) {
	e := NewEvaluator(DefaultScenarioSLOs())
	e.Observe(snap("scenario_acked_total", 50))                                 // clean round
	e.Observe(snap("scenario_acked_total", 50, "scenario_acked_lost_total", 1)) // loses a file
	burns := e.Burns()
	if len(burns) != 4 {
		t.Fatalf("burns = %d objectives, want 4", len(burns))
	}
	byName := make(map[string]Burn)
	for _, b := range burns {
		if b.Windows != 2 {
			t.Errorf("%s observed %d windows, want 2", b.Objective.Name, b.Windows)
		}
		byName[b.Objective.Name] = b
	}
	if b := byName["acked-loss"]; b.Breaches != 1 || b.OK() {
		t.Errorf("acked-loss: breaches=%d ok=%v, want 1 breach and BREACH", b.Breaches, b.OK())
	}
	if b := byName["acked-corruption"]; b.Breaches != 0 || !b.OK() {
		t.Errorf("acked-corruption: breaches=%d ok=%v, want clean", b.Breaches, b.OK())
	}
	if b := byName["rpc-latency-p99"]; b.Breaches != 0 || !b.OK() {
		t.Errorf("rpc-latency-p99: breaches=%d ok=%v, want vacuous pass", b.Breaches, b.OK())
	}
}

// fakeRPC serves canned ClientObsReport replies keyed by address, so
// scraper behavior is testable without booting a fleet.
type fakeRPC struct {
	replies map[string]*past.ClientObsReportReply
	down    map[string]bool
}

func (f *fakeRPC) InvokeAddr(addr string, msg any) (any, error) {
	if f.down[addr] {
		return nil, errors.New("connection refused")
	}
	rep, ok := f.replies[addr]
	if !ok {
		return nil, errors.New("no such node")
	}
	return rep, nil
}

func fakeReply(seed byte, pairs ...any) *past.ClientObsReportReply {
	var n id.Node
	n[0] = seed
	return &past.ClientObsReportReply{Node: n, Snapshot: snap(pairs...)}
}

func TestScraperPoll(t *testing.T) {
	rpc := &fakeRPC{
		replies: map[string]*past.ClientObsReportReply{
			"a:1": fakeReply(1, obs.CtrMsgsIn, 10, obs.CtrLookups+"_x", 0, obs.CtrLookups, 4, obs.CtrStoreBytes, 100),
			"b:1": fakeReply(2, obs.CtrMsgsIn, 20, obs.CtrLookups, 6, obs.CtrStoreBytes, 50),
		},
		down: map[string]bool{"c:1": true},
	}
	s := NewScraper(rpc, []Target{
		{Name: "node00", Addr: "a:1"},
		{Name: "node01", Addr: "b:1"},
		{Name: "node02", Addr: "c:1"},
	})

	p1 := s.Poll()
	if p1.Seq != 1 || p1.Live != 2 || len(p1.Nodes) != 3 {
		t.Fatalf("poll 1: seq=%d live=%d nodes=%d", p1.Seq, p1.Live, len(p1.Nodes))
	}
	if p1.Nodes[2].Live() || p1.Nodes[2].Err == "" {
		t.Fatalf("down target recorded live: %+v", p1.Nodes[2])
	}
	if p1.Nodes[0].Node[0] != 1 {
		t.Fatalf("rpc scrape: %+v", p1.Nodes[0])
	}
	// Fleet sums current snapshots of the live nodes (gauges included);
	// totals accumulate only the "_total" counters.
	if got := p1.Fleet.Get(obs.CtrStoreBytes); got != 150 {
		t.Errorf("fleet store bytes = %d, want 150", got)
	}
	if got := p1.Totals.Counters[obs.CtrLookups]; got != 10 {
		t.Errorf("totals lookups = %d, want 10", got)
	}
	if _, ok := p1.Totals.Counters[obs.CtrStoreBytes]; ok {
		t.Error("a gauge leaked into the monotonic totals")
	}

	// Second poll: node00 restarts (counters reset), node01 advances.
	// Totals keep node01's delta plus node00's fresh count, never going
	// backwards.
	rpc.replies["a:1"] = fakeReply(1, obs.CtrMsgsIn, 2, obs.CtrLookups, 1, obs.CtrStoreBytes, 10)
	rpc.replies["b:1"] = fakeReply(2, obs.CtrMsgsIn, 30, obs.CtrLookups, 9, obs.CtrStoreBytes, 50)
	p2 := s.Poll()
	if !p2.Nodes[0].Restarted {
		t.Fatal("restart not detected")
	}
	if got := p2.Window.Get(obs.CtrLookups); got != 4 { // 1 (fresh life) + 3 (delta)
		t.Errorf("window lookups = %d, want 4", got)
	}
	if got := p2.Totals.Counters[obs.CtrLookups]; got != 14 {
		t.Errorf("totals lookups = %d, want 14", got)
	}
	merged := p2.Merged()
	if merged.Get(obs.CtrLookups) != 14 || merged.Get(obs.CtrStoreBytes) != 60 {
		t.Errorf("merged: lookups=%d store=%d, want 14 and 60", merged.Get(obs.CtrLookups), merged.Get(obs.CtrStoreBytes))
	}
	if s.Last() != p2 {
		t.Error("Last() is not the latest poll")
	}
}

// TestScraperRPCFailureIsDown: a target whose RPC fails is DOWN with
// the RPC error and contributes to none of the aggregates, while what
// it counted before it went away stays in the monotonic totals.
func TestScraperRPCFailureIsDown(t *testing.T) {
	rpc := &fakeRPC{
		replies: map[string]*past.ClientObsReportReply{
			"a:1": fakeReply(1, obs.CtrLookups, 4, obs.CtrStoreBytes, 100),
			"b:1": fakeReply(2, obs.CtrLookups, 6, obs.CtrStoreBytes, 50),
		},
		down: map[string]bool{},
	}
	s := NewScraper(rpc, []Target{{Name: "node00", Addr: "a:1"}, {Name: "node01", Addr: "b:1"}})
	s.Poll()

	rpc.down["b:1"] = true
	rpc.replies["a:1"] = fakeReply(1, obs.CtrLookups, 5, obs.CtrStoreBytes, 100)
	p := s.Poll()
	ns := p.Nodes[1]
	if ns.Live() || ns.Err != "connection refused" || !ns.Node.IsZero() {
		t.Fatalf("down target: live=%v err=%q node=%v", ns.Live(), ns.Err, ns.Node)
	}
	if p.Live != 1 {
		t.Fatalf("live = %d, want 1", p.Live)
	}
	if got := p.Fleet.Get(obs.CtrStoreBytes); got != 100 {
		t.Errorf("fleet store bytes = %d, want 100 (the down node's 50 excluded)", got)
	}
	if got := p.Window.Get(obs.CtrLookups); got != 1 {
		t.Errorf("window lookups = %d, want 1 (node00's delta only)", got)
	}
	if got := p.Totals.Get(obs.CtrLookups); got != 11 {
		t.Errorf("totals lookups = %d, want 11 (10 before the outage + 1)", got)
	}
}

func TestHandler(t *testing.T) {
	rpc := &fakeRPC{
		replies: map[string]*past.ClientObsReportReply{
			"a:1": fakeReply(1, obs.CtrMsgsIn, 10, obs.CtrLookups, 4),
		},
		down: map[string]bool{"b:1": true},
	}
	s := NewScraper(rpc, []Target{{Name: "node00", Addr: "a:1"}, {Name: "node01", Addr: "b:1"}})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		`past_lookups_total{node="node00"} 4`,
		`past_lookups_total{node="fleet"} 4`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "node01") {
		t.Error("/metrics carries a series for the dead node")
	}

	code, body = get("/nodes")
	if code != http.StatusOK || !strings.Contains(body, "DOWN") || !strings.Contains(body, "node00") {
		t.Errorf("/nodes: status %d body %q", code, body)
	}

	if code, _ = get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz with a live node: status %d", code)
	}

	code, body = get("/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index: status %d body %q", code, body)
	}
	if code, _ = get("/no-such"); code != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", code)
	}

	// With every target down the aggregator reports itself unhealthy.
	rpc.down["a:1"] = true
	s.Poll()
	if code, _ = get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz with no live nodes: status %d, want 503", code)
	}
}
