package past

import (
	"fmt"
	"math"
	"testing"

	"past/internal/id"
	"past/internal/metrics"
	"past/internal/obs"
	"past/internal/store"
	"past/internal/topology"
	"past/internal/transport"
	"past/internal/wire"
)

// TestTracedLookupMatchesCollectorHops pins the agreement between the
// two observation paths: the hop count a traced lookup's per-hop
// records reconstruct must equal the hop count the metrics.Collector is
// fed for the same operation (LookupResult.Hops, net of the pointer
// chase the trace does not cover).
// forwardHops counts the records of a trace that moved the message: a
// complete route's hop count, failed attempts and the final local
// delivery excluded.
func forwardHops(trace []obs.HopRecord) int {
	n := 0
	for _, h := range trace {
		if !h.Failed && h.Choice != obs.ChoiceLocal {
			n++
		}
	}
	return n
}

func TestTracedLookupMatchesCollectorHops(t *testing.T) {
	cfg := smallCfg()
	tracer := obs.NewTracer(1, 256)
	cfg.Tracer = tracer
	col := metrics.NewCollector(40<<20, 4)
	cfg.Monitor = col
	c := testCluster(t, 40, cfg, 1<<20, 7)

	var files []id.File
	for i := 0; i < 12; i++ {
		ins, err := c.RandomAliveNode().Insert(InsertSpec{
			Name: fmt.Sprintf("obs-%d", i), Size: 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ins.OK {
			files = append(files, ins.FileID)
		}
	}
	if len(files) == 0 {
		t.Fatal("no files inserted")
	}

	var hopSum, found int
	for _, f := range files {
		client := c.RandomAliveNode()
		lr, err := client.Lookup(f)
		if err != nil {
			t.Fatal(err)
		}
		if !lr.Found {
			t.Fatalf("file %s not found on a quiet network", f.Short())
		}
		col.RecordLookup(col.Utilization(), lr.Hops, true, lr.FromCache)
		hopSum += lr.Hops
		found++

		if len(lr.Trace) == 0 {
			t.Fatal("lookup sampled at every=1 returned no trace")
		}
		want := lr.Hops
		if lr.Indirect {
			want-- // the pointer chase is one RPC, not a routing hop
		}
		if got := forwardHops(lr.Trace); got != want {
			t.Fatalf("trace reconstructs %d hops, lookup reported %d (indirect=%v)",
				got, want, lr.Indirect)
		}
	}

	// The collector's aggregate view must agree with what we fed it.
	meanHops, _, n := col.GlobalLookupStats()
	if n != found {
		t.Fatalf("collector saw %d lookups, want %d", n, found)
	}
	if want := float64(hopSum) / float64(found); math.Abs(meanHops-want) > 1e-9 {
		t.Fatalf("collector mean hops %.4f, want %.4f", meanHops, want)
	}

	// The tracer retained lookup traces whose RouteHops match too.
	lookups := 0
	for _, tr := range tracer.Traces() {
		if tr.Op != "lookup" {
			continue
		}
		lookups++
		if got := forwardHops(tr.Hops); got != tr.RouteHops {
			t.Fatalf("retained trace: records give %d hops, RouteHops says %d", got, tr.RouteHops)
		}
	}
	if lookups != found {
		t.Fatalf("tracer retained %d lookup traces, want %d", lookups, found)
	}
}

// TestStatsRegistryAndSnapshot checks that client operations land in
// the per-node registry and that StatsSnapshot folds in the gauges.
func TestStatsRegistryAndSnapshot(t *testing.T) {
	c := testCluster(t, 30, smallCfg(), 1<<20, 9)
	client := c.RandomAliveNode()
	ins, err := client.Insert(InsertSpec{Name: "stats", Content: []byte("hello")})
	if err != nil || !ins.OK {
		t.Fatalf("insert: %v ok=%v", err, ins != nil && ins.OK)
	}
	if _, err := client.Lookup(ins.FileID); err != nil {
		t.Fatal(err)
	}

	st := client.stats
	if st.Inserts.Load() != 1 || st.Lookups.Load() != 1 {
		t.Fatalf("registry inserts=%d lookups=%d, want 1/1", st.Inserts.Load(), st.Lookups.Load())
	}
	if st.MsgsOut.Load() == 0 {
		t.Fatal("client issued RPCs but msgs_out is 0")
	}

	snap := client.StatsSnapshot()
	if snap.Get(obs.CtrInserts) != 1 || snap.Get(obs.CtrLookups) != 1 {
		t.Fatalf("snapshot inserts=%d lookups=%d, want 1/1",
			snap.Get(obs.CtrInserts), snap.Get(obs.CtrLookups))
	}
	if snap.Get(obs.CtrStoreCapacity) != 1<<20 {
		t.Fatalf("snapshot capacity gauge = %d, want %d", snap.Get(obs.CtrStoreCapacity), 1<<20)
	}
	if snap.Get(obs.CtrLeafSetSize) == 0 || snap.Get(obs.CtrTableEntries) == 0 {
		t.Fatal("snapshot must carry overlay gauges")
	}
	// Emulated RPCs are function calls: counted, never timed.
	if got := snap.TotalRPCs(); got != 0 || snap.Get(obs.CtrRPCTimeNanos) != 0 {
		t.Fatalf("emulated RPCs filled the latency histogram with %d samples", got)
	}

	// Replicas must be accounted somewhere in the cluster.
	var stored int64
	for _, n := range c.Nodes {
		stored += n.stats.ReplicasStored.Load()
	}
	if stored < int64(smallCfg().K) {
		t.Fatalf("cluster-wide replicas_stored = %d, want >= k=%d", stored, smallCfg().K)
	}

	// The ClientObsReport RPC handler serves the same snapshot shape.
	reply, err := client.handleClientRPC(obs.TraceContext{}, &ClientObsReport{})
	if err != nil {
		t.Fatal(err)
	}
	or, ok := reply.(*ClientObsReportReply)
	if !ok {
		t.Fatalf("ClientObsReport reply type %T", reply)
	}
	if or.Node != client.ID() || or.Snapshot.Get(obs.CtrInserts) != 1 {
		t.Fatalf("RPC snapshot from %s: inserts = %d, want 1 from %s",
			or.Node.Short(), or.Snapshot.Get(obs.CtrInserts), client.ID().Short())
	}
}

// TestTracerSamplesEveryNth checks the deterministic sampling cadence
// through the full client path.
func TestTracerSamplesEveryNth(t *testing.T) {
	cfg := smallCfg()
	tracer := obs.NewTracer(3, 64)
	cfg.Tracer = tracer
	c := testCluster(t, 20, cfg, 1<<20, 11)
	client := c.RandomAliveNode()
	ins, err := client.Insert(InsertSpec{Name: "f", Content: []byte("x")}) // op 1: sampled
	if err != nil || !ins.OK {
		t.Fatalf("insert: %v", err)
	}
	for i := 0; i < 8; i++ { // ops 2..9: sampled at 4 and 7
		if _, err := client.Lookup(ins.FileID); err != nil {
			t.Fatal(err)
		}
	}
	if got := tracer.Started(); got != 9 {
		t.Fatalf("tracer saw %d ops, want 9", got)
	}
	if got := tracer.Sampled(); got != 3 {
		t.Fatalf("tracer sampled %d ops, want 3 (every 3rd of 9)", got)
	}
	trs := tracer.Traces()
	if trs[0].Op != "insert" || trs[1].Op != "lookup" || trs[2].Op != "lookup" {
		t.Fatalf("sampled ops %q %q %q, want insert, lookup, lookup", trs[0].Op, trs[1].Op, trs[2].Op)
	}
}

// TestRPCLatencyOverTCP: where a call takes real time the node times
// it — every RPC a node sends over transport.TCP lands in the latency
// histogram (TestStatsRegistryAndSnapshot holds the emulator's side).
func TestRPCLatencyOverTCP(t *testing.T) {
	wire.RegisterWire()
	RegisterWire()
	start := func(seed uint64) (*Node, *transport.TCP) {
		nid := id.NodeFromUint64(seed)
		tr, err := transport.New(nid, "127.0.0.1:0", topology.Point{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		n := NewWithStore(nid, tr, smallCfg(), store.New(1<<20), int64(seed))
		tr.Serve(n)
		return n, tr
	}
	a, aTr := start(1)
	a.Overlay().Bootstrap()
	b, bTr := start(2)
	boot, err := bTr.Bootstrap(aTr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Overlay().Join(boot); err != nil {
		t.Fatal(err)
	}
	snap := b.StatsSnapshot()
	if out := snap.Get(obs.CtrMsgsOut); out == 0 || snap.TotalRPCs() != out || snap.Get(obs.CtrRPCTimeNanos) <= 0 {
		t.Fatalf("TCP node: msgs_out=%d, latency samples=%d, rpc time %dns; want every RPC timed",
			out, snap.TotalRPCs(), snap.Get(obs.CtrRPCTimeNanos))
	}
}
