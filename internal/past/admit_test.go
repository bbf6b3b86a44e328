package past

import (
	"math/rand"
	"testing"
	"time"

	"past/internal/admit"
	"past/internal/id"
)

// admitCluster builds a cluster where every node runs admission control
// against a shared, test-controlled clock. With the clock frozen, each
// node's routed-message budget is exactly Burst+Depth before it sheds;
// advancing the clock refills the buckets.
func admitCluster(t *testing.T, n int, ac admit.Config, seed int64) (*Cluster, *time.Time) {
	t.Helper()
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	ac.Clock = func() time.Time { return now }
	cfg := smallCfg()
	cfg.Admit = &ac
	c := testCluster(t, n, cfg, 1<<20, seed)
	return c, &now
}

// missLookups drives routed traffic by looking up files that do not
// exist: a miss is never cached, so every call crosses the network and
// burns admission tokens at each hop (unlike repeated lookups of a real
// file, which get served from path caches after the first pass).
func missLookups(c *Cluster, rng *rand.Rand, count int) {
	for i := 0; i < count; i++ {
		var f id.File
		rng.Read(f[:])
		c.RandomAliveNode().Lookup(f)
	}
}

func TestAdmissionShedsAndReroutesWithoutEviction(t *testing.T) {
	// Freeze the clock and hammer routed lookups: nodes run out of
	// tokens, shed with ErrOverloaded, and upstream hops must reroute
	// around them without evicting them from routing state.
	c, now := admitCluster(t, 25, admit.Config{Rate: 1, Burst: 8, Depth: 4}, 7)
	client := c.Nodes[0]
	res, err := client.Insert(InsertSpec{Name: "hot", Content: []byte("hot file")})
	if err != nil || !res.OK {
		t.Fatalf("insert: %v %+v", err, res)
	}

	leafBefore := len(client.Overlay().LeafSet())
	rng := rand.New(rand.NewSource(1))
	// Errors are expected here: under total saturation a lookup can
	// come back ErrOverloaded or not-found. The accounting below is
	// what matters.
	missLookups(c, rng, 400)

	var shed, admitted, overloadHops int64
	for _, node := range c.Nodes {
		snap := node.StatsSnapshot()
		shed += snap.Get(admit.CtrShed)
		admitted += snap.Get(admit.CtrAdmitted)
		overloadHops += node.Overlay().OverloadHops()
	}
	if admitted == 0 {
		t.Fatal("admission counters never moved")
	}
	if shed == 0 {
		t.Fatal("no routed work was shed under a frozen token bucket")
	}
	if overloadHops == 0 {
		t.Fatal("no hop rerouted around an overloaded node")
	}
	// Overload must not tear down routing state: a shed hop is busy,
	// not dead, so the client's leaf set survives the storm intact.
	if got := len(client.Overlay().LeafSet()); got != leafBefore {
		t.Fatalf("leaf set changed under overload: %d -> %d", leafBefore, got)
	}

	// Thaw the clock: tokens refill and the same cluster serves the
	// real file again, proving the shedding nodes were never treated as
	// failed.
	*now = now.Add(time.Hour)
	got, err := c.Nodes[1].Lookup(res.FileID)
	if err != nil || !got.Found {
		t.Fatalf("lookup after refill: %v %+v", err, got)
	}
}

func TestAdmissionDisabledIsUnchanged(t *testing.T) {
	// Config.Admit == nil must leave every path untouched: no
	// admission counters in the snapshot.
	c := testCluster(t, 10, smallCfg(), 1<<20, 3)
	n := c.RandomAliveNode()
	snap := n.StatsSnapshot()
	if _, ok := snap.Counters[admit.CtrAdmitted]; ok {
		t.Fatal("admission counters leaked into a snapshot without admission control")
	}
}

func TestAdmissionCountersInSnapshot(t *testing.T) {
	c, _ := admitCluster(t, 12, admit.Config{Rate: 1, Burst: 500, Depth: 50}, 11)
	rng := rand.New(rand.NewSource(2))
	missLookups(c, rng, 20)
	var total int64
	for _, node := range c.Nodes {
		total += node.StatsSnapshot().Get(admit.CtrAdmitted)
	}
	if total == 0 {
		t.Fatal("admit_admitted_total missing from snapshots")
	}
}

func TestAdmissionFingerprintUnchangedWhenOff(t *testing.T) {
	// The admission wiring must not disturb a run with admission
	// disabled: two identical clusters serve identical results with
	// identical hop counts.
	run := func() []int {
		c := testCluster(t, 15, smallCfg(), 1<<20, 31)
		res, err := c.Nodes[0].Insert(InsertSpec{Name: "det", Content: []byte("det")})
		if err != nil || !res.OK {
			t.Fatalf("insert: %v", err)
		}
		var hops []int
		for i := 0; i < 20; i++ {
			got, err := c.Nodes[i%len(c.Nodes)].Lookup(res.FileID)
			if err != nil || !got.Found {
				t.Fatalf("lookup %d: %v", i, err)
			}
			hops = append(hops, got.Hops)
		}
		return hops
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hop stream diverged at %d: %v vs %v", i, a, b)
		}
	}
}
