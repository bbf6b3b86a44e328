package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"past/internal/admit"
	"past/internal/cache"
	"past/internal/chaos"
	"past/internal/id"
	"past/internal/netsim"
	"past/internal/obs"
	"past/internal/past"
	"past/internal/stats"
)

// The chaos soak is not one of the paper's figures: it validates the
// property every figure presumes — that the section 3.5 maintenance
// protocol actually preserves the storage invariant under the failures
// the paper's design sections argue about (node failure and recovery,
// lossy and slow links, network partitions). The soak drives a cluster
// through a seeded fault schedule, runs the maintenance protocol each
// virtual tick, and asserts the invariants with an omniscient checker.

// The soak's fixed shape: everything but what SoakConfig sets (sizes,
// fault-phase length, loss rate, seed and the observation switches).
const (
	soakB, soakL, soakK = 4, 16, 3 // overlay digit bits, leaf set, replicas

	soakDup     = 0.05 // per-message duplication probability on every link
	soakDelayMS = 5    // per-message virtual latency

	// Every soakChurnEvery ticks one majority node crashes; it recovers
	// and rejoins soakDownFor ticks later.
	soakChurnEvery, soakDownFor = 3, 2

	// A symmetric partition isolates a minority of soakPartitionFrac of
	// the nodes for ticks [soakPartitionFrom, soakPartitionFrom+soakPartitionFor).
	soakPartitionFrom, soakPartitionFor = 4, 3
	soakPartitionFrac                   = 0.2

	// soakHealRounds maintenance rounds run after all faults lift,
	// before convergence is asserted.
	soakHealRounds = 4
)

// SoakConfig parameterizes one fault-injection soak run; runs start
// from DefaultSoakConfig.
type SoakConfig struct {
	Nodes int
	Files int
	Seed  int64

	// Ticks is the length of the fault phase in virtual ticks; one
	// maintenance round runs per tick.
	Ticks int

	// Drop is the per-message loss probability on every link.
	Drop float64

	// Resilience enables the resilience layer on every node: Pastry's
	// per-hop reroute around a dead next hop (section 2.1) plus partial
	// inserts. Off, routing is fail-fast and an insert needs all k
	// replica-set members. BuildSoakSchedule never consults it, so the
	// fault timeline is identical with the layer on and off — the flag
	// changes only how the cluster copes.
	Resilience bool

	// FaultOps is the measurement traffic issued every fault-phase
	// tick: FaultOps lookups of seeded files plus one insert, from
	// deterministically chosen clients. The success rates quantify how
	// the cluster degrades while faults are active. Zero disables the
	// traffic.
	FaultOps int

	// Admit, when non-nil, puts every node behind an admission
	// controller, so the soak also exercises overload shedding under
	// faults. Rejections are counted (FaultSheds) and emitted as
	// "overload" events; the schedule itself never consults them.
	Admit *admit.Config

	// TraceEvery samples every Nth client operation for a full per-hop
	// route trace; sampled traces are retained on the result's Tracer
	// and summarized onto the event log. Zero disables tracing. The
	// sampler is counter-based (no RNG draws), so the chaos fingerprint
	// is identical with tracing on or off.
	TraceEvery int

	// Events, when non-nil, receives the run's structured JSONL event
	// stream: phase markers, every injected fault, every invariant
	// violation, per-tick traffic summaries, sampled trace summaries,
	// and a final run summary. Purely observational — the fingerprint
	// does not change when a log is attached.
	Events *obs.EventLog
}

// DefaultSoakConfig is past-chaos's soak, sized to finish in test time
// with zero violations.
func DefaultSoakConfig() SoakConfig {
	return SoakConfig{Nodes: 30, Files: 40, Seed: 1, Ticks: 12, Drop: 0.05, FaultOps: 8}
}

// minoritySize returns the size of the partitioned minority: at least
// k (so the minority can keep repairing internally), at most a third of
// the cluster.
func (c SoakConfig) minoritySize() int {
	m := int(soakPartitionFrac * float64(c.Nodes))
	if m < soakK {
		m = soakK
	}
	if max := c.Nodes / 3; m > max {
		m = max
	}
	return m
}

// BuildSoakSchedule derives the deterministic chaos.Schedule for a soak:
// background loss/duplication/latency on every link for the whole fault
// phase, one symmetric partition window isolating the first
// minoritySize() roster indices, and a churn script failing majority
// nodes round-robin. Schedule node indices are cluster build order.
func BuildSoakSchedule(cfg SoakConfig) chaos.Schedule {
	sched := chaos.Schedule{Seed: cfg.Seed}
	sched.Links = []chaos.LinkRule{{
		Window:  chaos.Window{From: 0, Until: cfg.Ticks},
		Drop:    cfg.Drop,
		Dup:     soakDup,
		DelayMS: soakDelayMS,
	}}
	m := cfg.minoritySize()
	minority := make([]int, m)
	majority := make([]int, 0, cfg.Nodes-m)
	for i := 0; i < cfg.Nodes; i++ {
		if i < m {
			minority[i] = i
		} else {
			majority = append(majority, i)
		}
	}
	sched.Partitions = []chaos.PartitionRule{{
		Window:    chaos.Window{From: soakPartitionFrom, Until: soakPartitionFrom + soakPartitionFor},
		A:         minority,
		B:         majority,
		Symmetric: true,
	}}
	// Churn victims come from the majority side only: a minority node
	// crashing inside the partition window could not rejoin (its whole
	// last leaf set may be unreachable), which would stall the script.
	rng := stats.NewRand(cfg.Seed ^ 0x50AC)
	next := m
	for t := soakChurnEvery; t < cfg.Ticks; t += soakChurnEvery {
		victim := []int{m + (next-m+rng.Intn(3))%(cfg.Nodes-m)}
		next = m + (next-m+1)%(cfg.Nodes-m)
		sched.Churn = append(sched.Churn,
			chaos.ChurnEvent{At: t, Fail: victim},
			chaos.ChurnEvent{At: t + soakDownFor, Recover: victim})
	}
	return sched
}

// PhaseStats summarizes one phase of a soak run: cluster-wide deltas
// of the per-node obs registries over the phase, plus the phase's
// measurement traffic. The registry deltas come from obs.Aggregate over
// every node's StatsSnapshot at the phase boundaries, so they count the
// whole emulated system, not just the clients.
type PhaseStats struct {
	// Faults is the number of chaos events recorded during the phase.
	Faults int64
	// Registry deltas.
	Reroutes       int64
	PartialInserts int64
	LeafRepairs    int64
	MsgsOut        int64
	// Measurement lookups issued during the phase and their successes.
	Lookups, LookupsOK int
	// MeanHops is the mean hop count over the phase's successful
	// lookups (0 when none succeeded).
	MeanHops float64
}

// String renders the phase stats as one compact line.
func (p PhaseStats) String() string {
	return fmt.Sprintf(
		"faults=%d reroutes=%d partial-inserts=%d leaf-repairs=%d msgs=%d lookups=%d/%d mean-hops=%.2f",
		p.Faults, p.Reroutes, p.PartialInserts, p.LeafRepairs, p.MsgsOut,
		p.LookupsOK, p.Lookups, p.MeanHops)
}

// SoakResult reports one soak run.
type SoakResult struct {
	Config   SoakConfig
	Schedule chaos.Schedule

	// Inserted counts the files whose insert was confirmed (only those
	// are subject to the invariants).
	Inserted int

	// Fingerprint is the chaos core's run digest; identical config must
	// produce identical fingerprints.
	Fingerprint string
	EventCount  int64
	Faults      map[string]int64

	// Violations is every invariant violation found, in discovery order.
	Violations []chaos.Violation

	// LookupsOK counts post-heal lookups that found their file (out of
	// Inserted).
	LookupsOK int

	// Fault-phase measurement traffic: operations issued while the
	// fault schedule was active. These quantify degradation under
	// faults; they do not affect OK(), which tracks the invariants and
	// post-heal retrievability.
	FaultLookups, FaultLookupsOK int
	FaultInserts, FaultInsertsOK int
	// FaultSheds counts fault-phase operations rejected with
	// ErrOverloaded by an admission controller (only with Config.Admit).
	FaultSheds int

	// FaultPhase and HealPhase are the per-phase registry deltas: the
	// fault phase covers the ticks the schedule is active, the heal
	// phase covers the heal rounds plus the post-heal lookups. Totals is
	// the whole run, seeding included, read off the same registries.
	FaultPhase, HealPhase, Totals PhaseStats

	// Tracer holds the run's sampled route traces when Config.TraceEvery
	// is set (nil otherwise).
	Tracer *obs.Tracer

	// Cluster is the final cluster, for post-mortem inspection.
	Cluster *past.Cluster

	// hopSum/hopN accumulate route hops of successful measurement
	// lookups; soakMark samples them for PhaseStats.MeanHops.
	hopSum, hopN int
}

// OK reports whether the soak completed with zero invariant violations
// and every post-heal lookup succeeding.
func (r *SoakResult) OK() bool {
	return len(r.Violations) == 0 && r.LookupsOK == r.Inserted
}

// FaultLookupRate returns the fraction of fault-phase lookups that
// succeeded (1 when none were issued).
func (r *SoakResult) FaultLookupRate() float64 {
	if r.FaultLookups == 0 {
		return 1
	}
	return float64(r.FaultLookupsOK) / float64(r.FaultLookups)
}

// RunSoak builds a cluster over the fault injector, inserts a
// population of files, executes the fault schedule with one maintenance
// round per tick, heals, and checks the invariants: durability at every
// tick, full convergence (replica counts back at k, no dangling
// pointers, no stray replicas) after the heal rounds.
func RunSoak(cfg SoakConfig) (*SoakResult, error) {
	sched := BuildSoakSchedule(cfg)
	core := chaos.NewCore(sched)

	// Capacity is generous: the soak isolates fault dynamics from the
	// storage-pressure dynamics the other experiments cover.
	capacity := int64(1) << 26
	elog := cfg.Events
	core.OnFault = func(kind string) {
		elog.Emit(obs.Event{Kind: "fault", Tick: core.Tick(), Op: kind})
	}

	pcfg := pastConfig(soakB, soakL, soakK, 0.1, 0.05, 4, cache.None)
	// Admission under the soak must stay deterministic: unless the
	// caller supplied a clock, pin the controllers to virtual time — one
	// second per tick — so token refill never depends on the wall clock.
	var admitTick int
	if cfg.Admit != nil {
		ac := *cfg.Admit
		if ac.Clock == nil {
			epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
			ac.Clock = func() time.Time {
				return epoch.Add(time.Duration(admitTick) * time.Second)
			}
		}
		pcfg.Admit = &ac
	}
	var tracer *obs.Tracer
	if cfg.TraceEvery > 0 {
		tracer = obs.NewTracer(cfg.TraceEvery, 64)
		tracer.OnTrace = func(tr *obs.Trace) {
			elog.Emit(obs.Event{
				Kind: "trace", Tick: core.Tick(), Op: tr.Op,
				Node: tr.Key.Short(), N: tr.Seq,
				Hops: tr.RouteHops, OK: tr.OK,
			})
		}
		pcfg.Tracer = tracer
	}
	if cfg.Resilience {
		pcfg.PartialInsert = true
	} else {
		// The layer-off baseline: fail-fast routing, no per-hop reroute.
		pcfg.Pastry.FailFast = true
	}
	cluster, err := past.NewCluster(past.ClusterSpec{
		N:        cfg.Nodes,
		Cfg:      pcfg,
		Capacity: func(int, *rand.Rand) int64 { return capacity },
		Seed:     cfg.Seed,
		WrapNet: func(nid id.Node, inner netsim.Net) netsim.Net {
			return core.Bind(nid, inner)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: soak cluster: %w", err)
	}

	res := &SoakResult{Config: cfg, Schedule: sched, Cluster: cluster, Tracer: tracer}
	checker := &chaos.Checker{K: soakK, OnViolation: func(v chaos.Violation) {
		res.Violations = append(res.Violations, v)
		elog.Emit(obs.Event{Kind: "violation", Tick: core.Tick(), Op: string(v.Kind), Detail: v.String()})
	}}

	// Seed the file population on a quiet network (the core is not yet
	// active), so every tracked file had a confirmed, clean insert.
	elog.Emit(obs.Event{Kind: "phase", Detail: "seed", N: int64(cfg.Files)})
	var files []id.File
	sizeRng := stats.NewRand(cfg.Seed ^ 0xF11E)
	for i := 0; i < cfg.Files; i++ {
		client := cluster.RandomAliveNode()
		ins, err := client.Insert(past.InsertSpec{
			Name: fmt.Sprintf("soak-%d", i),
			Size: 512 + int64(sizeRng.Intn(4096)),
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: soak insert %d: %w", i, err)
		}
		if ins.OK {
			files = append(files, ins.FileID)
		}
	}
	res.Inserted = len(files)

	// Fault phase: churn + maintenance + durability check each tick,
	// plus the measurement traffic that quantifies degradation. The
	// traffic RNG is dedicated and its draw sequence depends only on
	// the schedule-driven alive set, so the resilience-on and -off
	// variants of one schedule issue identical request streams.
	core.SetActive(true)
	elog.Emit(obs.Event{Kind: "phase", Detail: "fault", N: int64(cfg.Ticks)})
	faultStart := soakMark(core, cluster, res)
	opRng := stats.NewRand(cfg.Seed ^ 0x0B5E)
	lastLeaf := make(map[id.Node][]id.Node)
	var pendingRejoin []id.Node
	var shedSeen int64
	for t := 0; t < cfg.Ticks; t++ {
		core.SetTick(t)
		admitTick = t
		fail, rec := sched.ChurnAt(t)
		for _, i := range fail {
			nid, ok := core.NodeAt(i)
			if !ok || !cluster.Alive(nid) {
				continue
			}
			lastLeaf[nid] = cluster.ByID[nid].Overlay().LeafSet()
			cluster.Fail(nid)
			core.RecordChurn(chaos.FaultFail, nid)
		}
		for _, i := range rec {
			if nid, ok := core.NodeAt(i); ok && !cluster.Alive(nid) {
				cluster.Recover(nid)
				core.RecordChurn(chaos.FaultRecover, nid)
				pendingRejoin = append(pendingRejoin, nid)
			}
		}
		// Rejoins can fail under message loss; retry until they land.
		pendingRejoin = rejoin(cluster, lastLeaf, pendingRejoin)
		cluster.MaintainAll()
		checker.CheckDurability(cluster.Census(files), t)
		soakFaultOps(cluster, core, opRng, files, t, res)
		if cfg.Admit != nil {
			// Hop-level rejections this tick: sheds absorbed by per-hop
			// reroute never reach a client, so they are read off the
			// nodes' admission counters instead.
			if total := soakShedTotal(cluster); total > shedSeen {
				elog.Emit(obs.Event{Kind: "overload", Tick: t, Op: "hop-shed", N: total - shedSeen})
				shedSeen = total
			}
		}
		elog.Emit(obs.Event{
			Kind: "tick", Tick: t, N: core.EventCount(),
			OK: len(res.Violations) == 0,
			Detail: fmt.Sprintf("lookups %d/%d inserts %d/%d",
				res.FaultLookupsOK, res.FaultLookups, res.FaultInsertsOK, res.FaultInserts),
		})
	}
	faultEnd := soakMark(core, cluster, res)
	res.FaultPhase = phaseDelta(faultStart, faultEnd)
	res.FaultPhase.Lookups = res.FaultLookups
	res.FaultPhase.LookupsOK = res.FaultLookupsOK

	// Heal: advance past every schedule window, recover all nodes still
	// down, and re-merge the partitioned minority by re-announcing it to
	// the majority (the administrative step a real partition heal needs,
	// since keep-alives only probe known members).
	healTick := cfg.Ticks
	if e := sched.End(); e > healTick {
		healTick = e
	}
	elog.Emit(obs.Event{Kind: "phase", Tick: healTick, Detail: "heal", N: soakHealRounds})
	core.SetTick(healTick)
	for i := 0; i < core.Len(); i++ {
		if nid, ok := core.NodeAt(i); ok && !cluster.Alive(nid) {
			cluster.Recover(nid)
			core.RecordChurn(chaos.FaultRecover, nid)
			pendingRejoin = append(pendingRejoin, nid)
		}
	}
	pendingRejoin = rejoin(cluster, lastLeaf, pendingRejoin)
	if len(pendingRejoin) > 0 {
		return nil, fmt.Errorf("experiments: soak: %d nodes failed to rejoin on a clean network", len(pendingRejoin))
	}
	roster := cluster.Net.AliveNodes()
	for i := 0; i < cfg.minoritySize(); i++ {
		nid, ok := core.NodeAt(i)
		if !ok || !cluster.Alive(nid) {
			continue
		}
		// Pull state from the full membership: each side of the split
		// has forgotten the other, so a bridge node alone leaves both
		// sides' leaf sets incomplete; the resulting wrong replica
		// sets would strand extra copies.
		seeds := make([]id.Node, 0, len(roster)-1)
		for _, x := range roster {
			if x != nid {
				seeds = append(seeds, x)
			}
		}
		if err := cluster.ByID[nid].Overlay().Rejoin(seeds); err != nil {
			return nil, fmt.Errorf("experiments: soak: partition re-merge: %w", err)
		}
	}
	for r := 0; r < soakHealRounds; r++ {
		core.SetTick(healTick + r)
		admitTick = healTick + r
		cluster.MaintainAll()
	}

	// Final invariants: durability plus full convergence.
	finalEpoch := healTick + soakHealRounds
	final := cluster.Census(files)
	checker.CheckDurability(final, finalEpoch)
	checker.CheckConverged(final, finalEpoch)

	// End-to-end sanity: every file must still be retrievable. The
	// admission clock advances a virtual second per lookup so the final
	// sweep is not starved by tokens spent during the fault phase.
	for i, f := range files {
		admitTick = finalEpoch + i
		client := cluster.RandomAliveNode()
		lr, err := client.Lookup(f)
		if err == nil && lr.Found {
			res.LookupsOK++
			res.hopSum += lr.Hops
			res.hopN++
		}
	}
	healEnd := soakMark(core, cluster, res)
	res.HealPhase = phaseDelta(faultEnd, healEnd)
	res.HealPhase.Lookups = len(files)
	res.HealPhase.LookupsOK = res.LookupsOK
	res.Totals = phaseDelta(soakMarkT{}, healEnd)
	res.Totals.Lookups = res.FaultLookups + len(files)
	res.Totals.LookupsOK = res.FaultLookupsOK + res.LookupsOK

	res.Fingerprint = core.Fingerprint()
	res.EventCount = core.EventCount()
	res.Faults = core.Counters()
	elog.Emit(obs.Event{
		Kind: "summary", Tick: finalEpoch, N: res.EventCount, OK: res.OK(),
		Detail: fmt.Sprintf("fingerprint=%s violations=%d post-heal=%d/%d",
			res.Fingerprint, len(res.Violations), res.LookupsOK, res.Inserted),
	})
	return res, nil
}

// soakMark samples the cluster-wide observability state at a phase
// boundary: the aggregate of every node's registry snapshot, the chaos
// event count, and the result's hop accumulators.
type soakMarkT struct {
	snap         obs.Snapshot
	faults       int64
	hopSum, hopN int
}

func soakMark(core *chaos.Core, cluster *past.Cluster, res *SoakResult) soakMarkT {
	snaps := make([]obs.Snapshot, 0, len(cluster.Nodes))
	for _, n := range cluster.Nodes {
		snaps = append(snaps, n.StatsSnapshot())
	}
	return soakMarkT{
		snap:   obs.Aggregate(snaps...),
		faults: core.EventCount(),
		hopSum: res.hopSum,
		hopN:   res.hopN,
	}
}

// phaseDelta turns two boundary marks into the phase's PhaseStats.
// Lookups/LookupsOK are filled by the caller (they are per-phase
// already, not cumulative registry counters of measurement traffic
// alone — the registries also count maintenance-driven operations).
func phaseDelta(from, to soakMarkT) PhaseStats {
	d := to.snap.Delta(from.snap)
	ps := PhaseStats{
		Faults:         to.faults - from.faults,
		Reroutes:       d.Get(obs.CtrReroutes),
		PartialInserts: d.Get(obs.CtrPartialInserts),
		LeafRepairs:    d.Get(obs.CtrLeafRepairs),
		MsgsOut:        d.Get(obs.CtrMsgsOut),
	}
	if n := to.hopN - from.hopN; n > 0 {
		ps.MeanHops = float64(to.hopSum-from.hopSum) / float64(n)
	}
	return ps
}

// soakFaultOps issues one tick's measurement traffic: cfg.FaultOps
// lookups of seeded files plus one insert, each from a client drawn off
// the dedicated traffic RNG. Inserted files are deliberately NOT added
// to the invariant-checked population: an insert attempted into a
// faulty network has no clean confirmation, so it is measured (did the
// client get an acknowledgment?) but not asserted durable.
func soakFaultOps(cluster *past.Cluster, core *chaos.Core, rng *rand.Rand, files []id.File, tick int, res *SoakResult) {
	cfg := res.Config
	if cfg.FaultOps <= 0 || len(files) == 0 {
		return
	}
	for i := 0; i < cfg.FaultOps; i++ {
		client := soakClient(cluster, core, rng)
		f := files[rng.Intn(len(files))]
		if client == nil {
			continue
		}
		res.FaultLookups++
		lr, err := client.Lookup(f)
		if err == nil && lr.Found {
			res.FaultLookupsOK++
			res.hopSum += lr.Hops
			res.hopN++
		}
		soakNoteOverload(res, tick, "lookup", err)
	}
	client := soakClient(cluster, core, rng)
	size := 512 + int64(rng.Intn(4096))
	if client == nil {
		return
	}
	res.FaultInserts++
	ins, err := client.Insert(past.InsertSpec{
		Name: fmt.Sprintf("soak-fault-%d", tick),
		Size: size,
	})
	if err == nil && ins.OK {
		res.FaultInsertsOK++
	}
	soakNoteOverload(res, tick, "insert", err)
}

// soakNoteOverload records a client-visible admission rejection: the
// operation came back ErrOverloaded instead of being absorbed by
// per-hop reroute.
func soakNoteOverload(res *SoakResult, tick int, op string, err error) {
	if err == nil || !errors.Is(err, netsim.ErrOverloaded) {
		return
	}
	res.FaultSheds++
	res.Config.Events.Emit(obs.Event{Kind: "overload", Tick: tick, Op: op, Detail: err.Error()})
}

// soakShedTotal sums hop-level admission rejections across the cluster.
func soakShedTotal(cluster *past.Cluster) int64 {
	var total int64
	for _, n := range cluster.Nodes {
		total += n.StatsSnapshot().Get(admit.CtrShed)
	}
	return total
}

// soakClient picks an alive client node by walking the build roster
// from a seeded random start. Exactly one RNG draw per call, and the
// outcome depends only on the (schedule-driven) alive set — never on
// how earlier operations fared — so paired runs pick the same clients.
func soakClient(cluster *past.Cluster, core *chaos.Core, rng *rand.Rand) *past.Node {
	n := core.Len()
	if n == 0 {
		return nil
	}
	start := rng.Intn(n)
	for i := 0; i < n; i++ {
		if nid, ok := core.NodeAt((start + i) % n); ok && cluster.Alive(nid) {
			return cluster.ByID[nid]
		}
	}
	return nil
}

// SoakComparison pairs two runs of one fault schedule: resilience
// layer off and on.
type SoakComparison struct {
	Off, On *SoakResult
}

// CompareSoak runs the identical seeded fault schedule twice — once
// with the resilience layer off, once on — and returns both results.
// BuildSoakSchedule does not consult Resilience, so the fault timelines
// (and the measurement request streams) match; only how the clients
// cope differs.
func CompareSoak(cfg SoakConfig) (*SoakComparison, error) {
	off := cfg
	off.Resilience = false
	roff, err := RunSoak(off)
	if err != nil {
		return nil, fmt.Errorf("experiments: soak compare (resilience off): %w", err)
	}
	on := cfg
	on.Resilience = true
	ron, err := RunSoak(on)
	if err != nil {
		return nil, fmt.Errorf("experiments: soak compare (resilience on): %w", err)
	}
	return &SoakComparison{Off: roff, On: ron}, nil
}

// rejoin attempts Overlay().Rejoin for every listed node, returning the
// nodes whose rejoin still failed (to be retried next tick).
func rejoin(cluster *past.Cluster, lastLeaf map[id.Node][]id.Node, pending []id.Node) []id.Node {
	var still []id.Node
	for _, nid := range pending {
		if err := cluster.ByID[nid].Overlay().Rejoin(lastLeaf[nid]); err != nil {
			still = append(still, nid)
		}
	}
	return still
}

// RenderSoak formats a soak result in the repo's table style.
func RenderSoak(r *SoakResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos soak: %d nodes, k=%d, %d files, %d ticks (seed %d)\n",
		r.Config.Nodes, soakK, r.Inserted, r.Config.Ticks, r.Config.Seed)
	fmt.Fprintf(&b, "  faults injected: %d\n", r.EventCount)
	for _, kv := range chaos.SortedCounters(r.Faults) {
		fmt.Fprintf(&b, "    %s\n", kv)
	}
	if r.FaultLookups > 0 || r.FaultInserts > 0 {
		fmt.Fprintf(&b, "  fault-phase traffic: lookups %d/%d ok (%.0f%%), inserts %d/%d ok\n",
			r.FaultLookupsOK, r.FaultLookups, 100*r.FaultLookupRate(),
			r.FaultInsertsOK, r.FaultInserts)
	}
	if r.Config.Admit != nil {
		fmt.Fprintf(&b, "  admission: rate=%g burst=%d depth=%d, client-visible sheds %d\n",
			r.Config.Admit.Rate, r.Config.Admit.Burst, r.Config.Admit.Depth, r.FaultSheds)
	}
	if r.Config.Resilience {
		fmt.Fprintf(&b, "  resilience: reroutes=%d partial-inserts=%d\n",
			r.Totals.Reroutes, r.Totals.PartialInserts)
	}
	fmt.Fprintf(&b, "  fault phase: %s\n", r.FaultPhase)
	fmt.Fprintf(&b, "  heal phase:  %s\n", r.HealPhase)
	if r.Tracer != nil {
		fmt.Fprintf(&b, "  traces: sampled %d of %d client ops\n", r.Tracer.Sampled(), r.Tracer.Started())
	}
	fmt.Fprintf(&b, "  post-heal lookups: %d/%d ok\n", r.LookupsOK, r.Inserted)
	fmt.Fprintf(&b, "  invariant violations: %d\n", len(r.Violations))
	for i, v := range r.Violations {
		if i == 20 {
			fmt.Fprintf(&b, "    ... %d more\n", len(r.Violations)-20)
			break
		}
		fmt.Fprintf(&b, "    %s\n", v)
	}
	fmt.Fprintf(&b, "  fingerprint: %s\n", r.Fingerprint)
	if r.OK() {
		b.WriteString("  RESULT: PASS\n")
	} else {
		b.WriteString("  RESULT: FAIL\n")
	}
	return b.String()
}

// RenderSoakComparison formats the paired off/on runs side by side.
func RenderSoakComparison(c *SoakComparison) string {
	var b strings.Builder
	cfg := c.Off.Config
	fmt.Fprintf(&b, "Resilience comparison: %d nodes, k=%d, %d files, %d ticks, drop=%.2f (seed %d)\n",
		cfg.Nodes, soakK, cfg.Files, cfg.Ticks, cfg.Drop, cfg.Seed)
	row := func(name string, r *SoakResult) {
		fmt.Fprintf(&b, "  %-3s  fault lookups %3d/%3d (%5.1f%%)  fault inserts %2d/%2d  post-heal %d/%d  violations %d\n",
			name, r.FaultLookupsOK, r.FaultLookups, 100*r.FaultLookupRate(),
			r.FaultInsertsOK, r.FaultInserts, r.LookupsOK, r.Inserted, len(r.Violations))
	}
	row("off", c.Off)
	row("on", c.On)
	fmt.Fprintf(&b, "  layer activity (on): reroutes=%d partial-inserts=%d\n",
		c.On.Totals.Reroutes, c.On.Totals.PartialInserts)
	delta := c.On.FaultLookupRate() - c.Off.FaultLookupRate()
	fmt.Fprintf(&b, "  fault-phase lookup success: %.1f%% -> %.1f%% (%+.1f points)\n",
		100*c.Off.FaultLookupRate(), 100*c.On.FaultLookupRate(), 100*delta)
	b.WriteString("  per-phase registry deltas (off vs on):\n")
	phase := func(name string, off, on PhaseStats) {
		fmt.Fprintf(&b, "    %-5s  off: %s\n", name, off)
		fmt.Fprintf(&b, "    %-5s  on:  %s\n", "", on)
	}
	phase("fault", c.Off.FaultPhase, c.On.FaultPhase)
	phase("heal", c.Off.HealPhase, c.On.HealPhase)
	return b.String()
}
