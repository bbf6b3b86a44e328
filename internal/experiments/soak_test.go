package experiments

import (
	"bytes"
	"strings"
	"testing"

	"past/internal/admit"
	"past/internal/obs"
)

// smallSoak is DefaultSoakConfig at seed, resized to a test's cluster,
// file population and fault phase.
func smallSoak(seed int64, nodes, files, ticks int) SoakConfig {
	cfg := DefaultSoakConfig()
	cfg.Seed, cfg.Nodes, cfg.Files, cfg.Ticks = seed, nodes, files, ticks
	return cfg
}

func TestSoakZeroViolations(t *testing.T) {
	t.Parallel()
	r, err := RunSoak(DefaultSoakConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Inserted == 0 {
		t.Fatal("no files inserted")
	}
	if r.EventCount == 0 {
		t.Fatal("schedule injected no faults")
	}
	if len(r.Violations) != 0 {
		t.Fatalf("invariant violations:\n%s", RenderSoak(r))
	}
	if r.LookupsOK != r.Inserted {
		t.Fatalf("post-heal lookups: %d/%d ok", r.LookupsOK, r.Inserted)
	}
	if !r.OK() {
		t.Fatal("OK() must be true on a clean run")
	}
	if len(r.Faults) == 0 {
		t.Fatal("result carries no per-kind fault counts")
	}
	checkTotalsFromRegistry(t, r)
}

// checkTotalsFromRegistry: the whole-run totals a report prints are the
// final aggregate of the node registries and the chaos core's event
// count — there is no second tally to drift from them.
func checkTotalsFromRegistry(t *testing.T, r *SoakResult) {
	t.Helper()
	snaps := make([]obs.Snapshot, 0, len(r.Cluster.Nodes))
	for _, n := range r.Cluster.Nodes {
		snaps = append(snaps, n.StatsSnapshot())
	}
	agg := obs.Aggregate(snaps...)
	for _, c := range []struct {
		ctr  string
		have int64
	}{
		{obs.CtrReroutes, r.Totals.Reroutes},
		{obs.CtrPartialInserts, r.Totals.PartialInserts},
	} {
		if got := agg.Get(c.ctr); got != c.have {
			t.Errorf("registry %s = %d, Totals says %d", c.ctr, got, c.have)
		}
	}
	if r.Totals.Faults != r.EventCount {
		t.Errorf("Totals.Faults = %d, core counted %d events", r.Totals.Faults, r.EventCount)
	}
	if fh := r.FaultPhase.Reroutes + r.HealPhase.Reroutes; r.Totals.Reroutes < fh {
		t.Errorf("whole-run reroutes %d < fault+heal reroutes %d", r.Totals.Reroutes, fh)
	}
}

func TestSoakReproducible(t *testing.T) {
	t.Parallel()
	cfg := smallSoak(7, 25, 30, 9)
	a, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same config produced different fingerprints:\n%s\n%s", a.Fingerprint, b.Fingerprint)
	}
	if a.EventCount != b.EventCount || a.LookupsOK != b.LookupsOK || a.Inserted != b.Inserted {
		t.Fatalf("same config produced different outcomes: %+v vs %+v", a, b)
	}
	c, err := RunSoak(smallSoak(8, 25, 30, 9))
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint == a.Fingerprint {
		t.Fatal("different seed produced an identical fingerprint")
	}
}

// TestSoakResilienceImproves is the layer's headline validation: under
// one seeded chaos schedule with ≥10% message drop, fault-phase lookup
// success with the resilience layer on must strictly exceed the
// fail-fast baseline, with zero invariant violations either way.
func TestSoakResilienceImproves(t *testing.T) {
	t.Parallel()
	cfg := DefaultSoakConfig()
	cfg.Seed, cfg.Drop = 3, 0.10
	c, err := CompareSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Off.OK() {
		t.Fatalf("baseline run violated invariants:\n%s", RenderSoak(c.Off))
	}
	if !c.On.OK() {
		t.Fatalf("resilience run violated invariants:\n%s", RenderSoak(c.On))
	}
	if c.On.FaultLookups != c.Off.FaultLookups || c.On.FaultInserts != c.Off.FaultInserts {
		t.Fatalf("paired runs issued different request streams: %d/%d lookups, %d/%d inserts",
			c.Off.FaultLookups, c.On.FaultLookups, c.Off.FaultInserts, c.On.FaultInserts)
	}
	if c.On.FaultLookupsOK <= c.Off.FaultLookupsOK {
		t.Fatalf("resilience layer must strictly improve fault-phase lookups:\n%s", RenderSoakComparison(c))
	}
	if c.On.FaultInsertsOK < c.Off.FaultInsertsOK {
		t.Fatalf("resilience layer made fault-phase inserts worse:\n%s", RenderSoakComparison(c))
	}
	// The improvement must come from the layer actually working, and the
	// fail-fast baseline must not have used it.
	if c.On.Totals.Reroutes == 0 {
		t.Fatal("resilience run reported no reroutes")
	}
	if c.Off.Totals.Reroutes != 0 {
		t.Fatalf("fail-fast baseline rerouted %d times", c.Off.Totals.Reroutes)
	}
	checkTotalsFromRegistry(t, c.Off)
	checkTotalsFromRegistry(t, c.On)
}

// TestSoakResilienceReproducible asserts determinism with the layer on:
// identical config must reproduce the fault fingerprint and every
// traffic counter.
func TestSoakResilienceReproducible(t *testing.T) {
	t.Parallel()
	cfg := smallSoak(5, 25, 30, 9)
	cfg.Drop, cfg.Resilience = 0.10, true
	a, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("resilience-on runs diverged:\n%s\n%s", a.Fingerprint, b.Fingerprint)
	}
	if a.FaultLookupsOK != b.FaultLookupsOK || a.FaultInsertsOK != b.FaultInsertsOK ||
		a.EventCount != b.EventCount || a.LookupsOK != b.LookupsOK {
		t.Fatalf("resilience-on runs produced different outcomes: %+v vs %+v", a, b)
	}
	if a.Totals != b.Totals {
		t.Fatal("resilience-on runs recorded different layer activity")
	}
}

// TestSoakResilienceUnderAdmission: with every node behind a tight
// admission controller, the resilience layer must still end each run
// with no violation and every acknowledged file found after healing.
func TestSoakResilienceUnderAdmission(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{6, 12, 14} {
		cfg := smallSoak(seed, 20, 25, 8)
		cfg.FaultOps, cfg.Drop, cfg.Resilience = 20, 0.10, true
		cfg.Admit = &admit.Config{Rate: 2, Burst: 2, Depth: 2}
		r, err := RunSoak(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !r.OK() {
			t.Errorf("seed %d:\n%s", seed, RenderSoak(r))
		}
	}
}

func TestBuildSoakScheduleShape(t *testing.T) {
	t.Parallel()
	cfg := DefaultSoakConfig()
	cfg.Seed = 3
	s := BuildSoakSchedule(cfg)
	if len(s.Links) != 1 || s.Links[0].Drop == 0 {
		t.Fatalf("links = %+v", s.Links)
	}
	if len(s.Partitions) != 1 || !s.Partitions[0].Symmetric {
		t.Fatalf("partitions = %+v", s.Partitions)
	}
	if len(s.Churn) == 0 {
		t.Fatal("no churn events")
	}
	// Every churn victim must be outside the partitioned minority.
	m := cfg.minoritySize()
	for _, ev := range s.Churn {
		for _, i := range ev.Fail {
			if i < m {
				t.Fatalf("churn victim %d inside minority (size %d)", i, m)
			}
		}
	}
	// Schedules are deterministic.
	s2 := BuildSoakSchedule(cfg)
	if len(s2.Churn) != len(s.Churn) {
		t.Fatal("schedule not deterministic")
	}
	for i := range s.Churn {
		if s.Churn[i].At != s2.Churn[i].At {
			t.Fatal("schedule not deterministic")
		}
	}
}

// TestSoakObservabilityPreservesFingerprint is the determinism
// guarantee of the observability layer: running the identical schedule
// with tracing, the stats registry snapshots, and the JSONL event
// stream all active must reproduce the bare run's fingerprint
// bit-for-bit — observation draws no RNG and alters no message flow.
func TestSoakObservabilityPreservesFingerprint(t *testing.T) {
	t.Parallel()
	base := smallSoak(6, 25, 25, 8)
	plain, err := RunSoak(base)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	observed := base
	observed.TraceEvery = 2
	observed.Events = obs.NewEventLog(&buf)
	r, err := RunSoak(observed)
	if err != nil {
		t.Fatal(err)
	}
	if err := observed.Events.Close(); err != nil {
		t.Fatal(err)
	}

	if r.Fingerprint != plain.Fingerprint {
		t.Fatalf("tracing+events changed the fingerprint:\n  off %s\n  on  %s",
			plain.Fingerprint, r.Fingerprint)
	}
	if r.Tracer == nil || r.Tracer.Sampled() == 0 {
		t.Fatal("observed run sampled no traces")
	}

	evs, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatalf("emitted event stream does not parse: %v", err)
	}
	byKind := obs.CountByKind(evs)
	if byKind["phase"] < 3 {
		t.Fatalf("want >=3 phase events (seed, fault, heal), got %d", byKind["phase"])
	}
	if byKind["tick"] != base.Ticks {
		t.Fatalf("want %d tick events, got %d", base.Ticks, byKind["tick"])
	}
	if byKind["fault"] == 0 || byKind["trace"] == 0 {
		t.Fatalf("want fault and trace events, got %v", byKind)
	}
	if byKind["summary"] != 1 {
		t.Fatalf("want exactly one summary event, got %d", byKind["summary"])
	}
}

// TestSoakPhaseStats sanity-checks the per-phase registry deltas the
// comparison report prints.
func TestSoakPhaseStats(t *testing.T) {
	t.Parallel()
	cfg := smallSoak(4, 25, 25, 8)
	cfg.Drop, cfg.Resilience = 0.10, true
	r, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp, hp := r.FaultPhase, r.HealPhase
	if fp.Faults == 0 {
		t.Fatal("fault phase recorded no chaos events")
	}
	if fp.MsgsOut == 0 || hp.MsgsOut == 0 {
		t.Fatalf("phases recorded no traffic: fault=%d heal=%d msgs", fp.MsgsOut, hp.MsgsOut)
	}
	if fp.Lookups != r.FaultLookups || fp.LookupsOK != r.FaultLookupsOK {
		t.Fatalf("fault phase lookups %d/%d, result says %d/%d",
			fp.LookupsOK, fp.Lookups, r.FaultLookupsOK, r.FaultLookups)
	}
	if hp.Lookups != r.Inserted || hp.LookupsOK != r.LookupsOK {
		t.Fatalf("heal phase lookups %d/%d, result says %d/%d",
			hp.LookupsOK, hp.Lookups, r.LookupsOK, r.Inserted)
	}
	if hp.LookupsOK > 0 && hp.MeanHops <= 0 {
		t.Fatal("heal phase mean hops not accumulated")
	}
	out := RenderSoakComparison(&SoakComparison{Off: r, On: r})
	if !strings.Contains(out, "per-phase registry deltas") || !strings.Contains(out, "mean-hops") {
		t.Fatalf("comparison report missing per-phase deltas:\n%s", out)
	}
}

// TestSoakWithAdmissionShedsDeterministically puts every soak node
// behind a tight admission controller: the run must stay reproducible
// (the controllers are pinned to virtual time), record hop-level
// rejections, and emit the distinct "overload" event kind.
func TestSoakWithAdmissionShedsDeterministically(t *testing.T) {
	t.Parallel()
	cfg := smallSoak(5, 20, 25, 8)
	cfg.FaultOps = 20
	cfg.Admit = &admit.Config{Rate: 2, Burst: 2, Depth: 2}
	var buf bytes.Buffer
	acfg := cfg
	acfg.Events = obs.NewEventLog(&buf)
	a, err := RunSoak(acfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := acfg.Events.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("admission broke reproducibility:\n%s\n%s", a.Fingerprint, b.Fingerprint)
	}
	if a.FaultLookupsOK != b.FaultLookupsOK || a.FaultSheds != b.FaultSheds {
		t.Fatalf("admission broke traffic determinism: %d/%d ok, %d/%d shed",
			a.FaultLookupsOK, b.FaultLookupsOK, a.FaultSheds, b.FaultSheds)
	}
	evs, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := obs.CountByKind(evs)["overload"]; n == 0 {
		t.Fatalf("no overload events with Rate=2 admission and %d ops/tick; kinds: %v",
			cfg.FaultOps, obs.CountByKind(evs))
	}
	if !strings.Contains(RenderSoak(a), "admission:") {
		t.Fatalf("render missing admission line:\n%s", RenderSoak(a))
	}
}
