package past

import (
	"fmt"
	"math/rand"
	"testing"

	"past/internal/id"
	"past/internal/obs"
	"past/internal/store"
	"past/internal/topology"
)

// The paper's section 5 preamble: "It was verified that the storage
// invariants are maintained properly despite random node failures and
// recoveries." These tests are that verification.

func TestChurnFailuresPreserveInvariant(t *testing.T) {
	cfg := smallCfg()
	c := testCluster(t, 50, cfg, 1<<20, 20)
	client := c.RandomAliveNode()

	var files []id.File
	for i := 0; i < 60; i++ {
		res, err := client.Insert(InsertSpec{Name: fmt.Sprintf("churn-%d", i), Size: 2048})
		if err != nil || !res.OK {
			t.Fatalf("insert %d: %v %+v", i, err, res)
		}
		files = append(files, res.FileID)
	}

	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 3; round++ {
		// Fail 3 random live nodes (never the client).
		alive := c.Net.AliveNodes()
		rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
		failed := 0
		for _, nid := range alive {
			if nid == client.ID() {
				continue
			}
			c.Fail(nid)
			failed++
			if failed == 3 {
				break
			}
		}

		// Keep-alive rounds detect the failures; leaf-set repair fires
		// the maintenance that re-creates lost replicas.
		c.Maintain()
		c.Maintain()

		for _, f := range files {
			assertReplicaInvariant(t, c, f, cfg.K)
			got, err := client.Lookup(f)
			if err != nil {
				t.Fatalf("round %d: lookup %s: %v", round, f.Short(), err)
			}
			if !got.Found {
				t.Fatalf("round %d: file %s lost", round, f.Short())
			}
		}
	}
}

func TestChurnRecoveryPreservesInvariant(t *testing.T) {
	cfg := smallCfg()
	c := testCluster(t, 40, cfg, 1<<20, 22)
	client := c.Nodes[0]

	var files []id.File
	for i := 0; i < 40; i++ {
		res, err := client.Insert(InsertSpec{Name: fmt.Sprintf("rec-%d", i), Size: 1024})
		if err != nil || !res.OK {
			t.Fatalf("insert %d failed", i)
		}
		files = append(files, res.FileID)
	}

	// Fail two nodes, remembering their leaf sets for recovery.
	victims := []*Node{c.Nodes[5], c.Nodes[25]}
	lastLeaf := make(map[id.Node][]id.Node)
	for _, v := range victims {
		lastLeaf[v.ID()] = v.Overlay().LeafSet()
		c.Fail(v.ID())
	}
	c.Maintain()
	c.Maintain()
	for _, f := range files {
		assertReplicaInvariant(t, c, f, cfg.K)
	}

	// Recover them; they rejoin from their last known leaf sets.
	for _, v := range victims {
		c.Recover(v.ID())
		if err := v.Overlay().Rejoin(lastLeaf[v.ID()]); err != nil {
			t.Fatal(err)
		}
	}
	c.Maintain()
	c.Maintain()

	for _, f := range files {
		assertReplicaInvariant(t, c, f, cfg.K)
		got, err := client.Lookup(f)
		if err != nil || !got.Found {
			t.Fatalf("post-recovery lookup %s: %v %+v", f.Short(), err, got)
		}
	}
}

func TestJoinTriggersReplicaMigration(t *testing.T) {
	cfg := smallCfg()
	c := testCluster(t, 30, cfg, 1<<20, 23)
	client := c.Nodes[0]

	var files []id.File
	for i := 0; i < 50; i++ {
		res, err := client.Insert(InsertSpec{Name: fmt.Sprintf("mig-%d", i), Size: 512})
		if err != nil || !res.OK {
			t.Fatalf("insert %d failed", i)
		}
		files = append(files, res.FileID)
	}

	// Add 10 new nodes; some become among-the-k-closest for existing
	// files and must acquire replicas (or pointers).
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 10; i++ {
		var nid id.Node
		rng.Read(nid[:])
		node := NewWithStore(nid, c.Net, cfg, store.New(1<<20), rng.Int63())
		pos := randomPos(rng)
		c.Net.Register(nid, pos, node)
		if err := node.Overlay().Join(c.closestExisting(pos)); err != nil {
			t.Fatal(err)
		}
		c.Nodes = append(c.Nodes, node)
		c.ByID[nid] = node
	}
	c.Maintain()

	for _, f := range files {
		assertReplicaInvariant(t, c, f, cfg.K)
		got, err := client.Lookup(f)
		if err != nil || !got.Found {
			t.Fatalf("post-join lookup %s failed", f.Short())
		}
	}
}

func TestDivertedReplicaSurvivesReferrerFailure(t *testing.T) {
	// Section 3.3 condition (2): the failure of the diverting node A must
	// not orphan the replica on B — node C's backup pointer keeps it
	// reachable and maintenance restores the invariant.
	cfg := smallCfg()
	c, err := NewCluster(ClusterSpec{
		N:   40,
		Cfg: cfg,
		Capacity: func(i int, _ *rand.Rand) int64 {
			if i%2 == 0 {
				return 30_000
			}
			return 300_000
		},
		Seed: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := c.RandomAliveNode()

	// Insert until some file gets a diverted replica.
	var f id.File
	var diverter id.Node
	for i := 0; i < 400 && diverter.IsZero(); i++ {
		res, err := client.Insert(InsertSpec{Name: fmt.Sprintf("d-%d", i), Size: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			break
		}
		if res.Diverted > 0 {
			f = res.FileID
			for _, nid := range c.GlobalClosest(f.Key(), cfg.K) {
				if _, ok := pointerOf(c.ByID[nid], f); ok {
					diverter = nid
					break
				}
			}
		}
	}
	if diverter.IsZero() {
		t.Skip("no diversion with a pointer at a k-closest node materialized")
	}

	c.Fail(diverter)
	c.Maintain()
	c.Maintain()

	assertReplicaInvariant(t, c, f, cfg.K)
	got, err := client.Lookup(f)
	if err != nil || !got.Found {
		t.Fatalf("file with diverted replica lost after referrer failure: %v %+v", err, got)
	}
}

func TestBelowKAccounting(t *testing.T) {
	// When the whole neighborhood is full, maintenance cannot re-create
	// replicas and must count the below-k condition rather than loop or
	// crash.
	cfg := smallCfg()
	c := testCluster(t, 12, cfg, 4_000, 26)
	client := c.Nodes[0]
	for i := 0; i < 100; i++ {
		res, err := client.Insert(InsertSpec{Name: fmt.Sprintf("full-%d", i), Size: 300})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			break
		}
	}
	// Fail a node; survivors try to re-create its replicas into a full
	// system.
	c.Fail(c.Nodes[6].ID())
	c.Maintain()
	c.Maintain()
	// The run must terminate (no livelock) — reaching here is the test;
	// belowK may or may not have incremented depending on placement.
	var total int64
	for _, n := range c.Nodes {
		total += n.StatsSnapshot().Get(obs.CtrBelowKEvents)
	}
	t.Logf("below-k events: %d", total)
}

// randomPos returns a random plane position for ad-hoc node additions.
func randomPos(r *rand.Rand) topology.Point {
	return topology.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
}
