package past

import (
	"fmt"
	"math/rand"
	"testing"

	"past/internal/obs"
	"past/internal/store"
)

// divertedCluster builds a cluster with heterogeneous capacities and
// inserts until some file has a diverted replica; it returns the
// cluster, the file, the diverting node (holds the pointer), and the
// diversion target.
func divertedCluster(t *testing.T, seed int64) (c *Cluster, f fileRef, a, b *Node) {
	t.Helper()
	cfg := smallCfg()
	var err error
	c, err = NewCluster(ClusterSpec{
		N:   40,
		Cfg: cfg,
		Capacity: func(i int, _ *rand.Rand) int64 {
			if i%2 == 0 {
				return 30_000
			}
			return 300_000
		},
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := c.Nodes[1]
	for i := 0; i < 500; i++ {
		res, err := client.Insert(InsertSpec{Name: fmt.Sprintf("dc-%d", i), Size: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			break
		}
		if res.Diverted == 0 {
			continue
		}
		for _, nid := range c.GlobalClosest(res.FileID.Key(), cfg.K) {
			n := c.ByID[nid]
			if target, ok := pointerOf(n, res.FileID); ok {
				return c, fileRef{id: res.FileID, size: 2000}, n, c.ByID[target]
			}
		}
	}
	t.Skip("no diversion materialized at this seed")
	return nil, fileRef{}, nil, nil
}

type fileRef struct {
	id   [20]byte
	size int64
}

func TestMigratePointerHome(t *testing.T) {
	c, f, a, b := divertedCluster(t, 61)
	if !b.HasReplica(f.id) {
		t.Fatal("sanity: diversion target lacks the replica")
	}

	// Free space at A: reclaim everything else A holds.
	entries, _ := a.StoreSnapshot()
	for _, e := range entries {
		if e.File != f.id {
			a.mu.Lock()
			a.removeReplicaLocked(e.File)
			a.mu.Unlock()
		}
	}

	// A maintenance pass at A migrates the diverted replica home.
	a.maintainReplicas()

	if _, still := pointerOf(a, f.id); still {
		t.Fatal("pointer survived migration")
	}
	if !a.HasReplica(f.id) {
		t.Fatal("replica not migrated home")
	}
	if b.HasReplica(f.id) {
		t.Fatal("remote copy not discarded after migration")
	}
	// And the file is still retrievable.
	got, err := c.RandomAliveNode().Lookup(f.id)
	if err != nil || !got.Found {
		t.Fatalf("lookup after migration: %v %+v", err, got)
	}
}

func TestReacquireAfterDivertTargetFailure(t *testing.T) {
	c, f, a, b := divertedCluster(t, 62)

	// The node holding the diverted replica dies; A's pointer dangles.
	c.Fail(b.ID())
	a.maintainReplicas()

	if target, ok := pointerOf(a, f.id); ok && target == b.ID() {
		t.Fatal("dangling pointer to dead diversion target survived")
	}
	// A re-created its replica: either locally, or re-diverted with a
	// fresh pointer, or recorded a below-k event if space was exhausted.
	hasLocal := a.HasReplica(f.id)
	newTarget, hasPtr := pointerOf(a, f.id)
	switch {
	case hasLocal:
	case hasPtr:
		if !c.Net.Alive(newTarget) || !c.ByID[newTarget].HasReplica(f.id) {
			t.Fatal("re-diverted pointer does not reference a live replica")
		}
	case a.StatsSnapshot().Get(obs.CtrBelowKEvents) > 0:
	default:
		t.Fatal("neither re-acquired nor counted below-k")
	}
	// The file remains retrievable from the surviving replicas.
	got, err := c.Nodes[1].Lookup(f.id)
	if err != nil || !got.Found {
		t.Fatalf("lookup after diversion-target failure: %v %+v", err, got)
	}
}

func TestHandleConvertToDiverted(t *testing.T) {
	c := testCluster(t, 20, smallCfg(), 1<<20, 63)
	n := c.Nodes[0]
	owner := c.Nodes[1].ID()

	// Converting an absent file is a harmless ack.
	var ghost [20]byte
	ghost[3] = 9
	if reply := n.handleConvertToDiverted(&convertToDivertedMsg{File: ghost, Owner: owner}); reply == nil {
		t.Fatal("nil reply")
	}

	// Insert so n holds a primary somewhere; find one it holds.
	client := c.Nodes[1]
	var held fileRef
	for i := 0; i < 200; i++ {
		res, err := client.Insert(InsertSpec{Name: fmt.Sprintf("cv-%d", i), Size: 100})
		if err != nil || !res.OK {
			t.Fatal("insert failed")
		}
		if n.HasReplica(res.FileID) {
			held = fileRef{id: res.FileID, size: 100}
			break
		}
	}
	if held.size == 0 {
		t.Skip("node holds nothing at this seed")
	}
	n.handleConvertToDiverted(&convertToDivertedMsg{File: held.id, Owner: owner})
	entries, _ := n.StoreSnapshot()
	found := false
	for _, e := range entries {
		if e.File == held.id {
			found = true
			if e.Kind != store.DivertedIn || e.Owner != owner {
				t.Fatalf("conversion wrong: %+v", e)
			}
		}
	}
	if !found {
		t.Fatal("entry vanished during conversion")
	}
}

func TestClientRPCsLocal(t *testing.T) {
	c := testCluster(t, 20, smallCfg(), 1<<20, 64)
	n := c.Nodes[0]
	from := c.Nodes[1].ID()

	reply, err := n.Deliver(from, &ClientInsert{Name: "rpc", Content: []byte("abc")})
	if err != nil {
		t.Fatal(err)
	}
	ir := reply.(*ClientInsertReply)
	if !ir.OK {
		t.Fatalf("client insert: %+v", ir)
	}

	reply, err = n.Deliver(from, &ClientLookup{File: ir.FileID})
	if err != nil {
		t.Fatal(err)
	}
	lr := reply.(*ClientLookupReply)
	if !lr.Found || string(lr.Content) != "abc" {
		t.Fatalf("client lookup: %+v", lr)
	}

	reply, err = n.Deliver(from, &ClientReclaim{File: ir.FileID})
	if err != nil {
		t.Fatal(err)
	}
	if rr := reply.(*ClientReclaimReply); !rr.Found || rr.Freed != 9 {
		t.Fatalf("client reclaim: %+v", rr)
	}
}

func TestAccessors(t *testing.T) {
	c := testCluster(t, 15, smallCfg(), 10_000, 65)
	n := c.Nodes[0]
	if n.StoredBytes() != 0 {
		t.Fatal("fresh node stores bytes")
	}
	if c.TotalCapacity() != 15*10_000 {
		t.Fatalf("total capacity = %d", c.TotalCapacity())
	}
	if c.Utilization() != 0 {
		t.Fatal("cluster utilization")
	}
	res, err := n.Insert(InsertSpec{Name: "acc", Size: 300})
	if err != nil || !res.OK {
		t.Fatal("insert")
	}
	if c.Utilization() <= 0 {
		t.Fatal("utilization did not rise")
	}
	if lr, err := n.Lookup(res.FileID); err != nil || !lr.Found {
		t.Fatalf("lookup: %+v, %v", lr, err)
	}
}

func TestStatusSnapshot(t *testing.T) {
	c := testCluster(t, 20, smallCfg(), 1<<20, 66)
	n := c.Nodes[0]
	if _, err := n.Insert(InsertSpec{Name: "st", Size: 500}); err != nil {
		t.Fatal(err)
	}
	snap := n.StatsSnapshot()
	if snap.Get(obs.CtrOverlayJoined) != 1 {
		t.Fatalf("overlay_joined = %d, want 1", snap.Get(obs.CtrOverlayJoined))
	}
	entries, _ := n.StoreSnapshot()
	if snap.Get(obs.CtrStoreCapacity) != 1<<20 || snap.Get(obs.CtrStoreBytes) != n.StoredBytes() ||
		snap.Get(obs.CtrStoreReplicas) != int64(len(entries)) {
		t.Fatalf("storage gauges: %v", snap.Counters)
	}
	if snap.Get(obs.CtrLeafSetSize) == 0 || snap.Get(obs.CtrTableEntries) == 0 {
		t.Fatalf("overlay gauges empty: %v", snap.Counters)
	}
	// RegisterWire is idempotent and callable.
	RegisterWire()
	RegisterWire()
}
