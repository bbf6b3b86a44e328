package past

import (
	"fmt"
	"testing"

	"past/internal/id"
)

func TestGracefulLeavePreservesFiles(t *testing.T) {
	cfg := smallCfg()
	c := testCluster(t, 40, cfg, 1<<21, 95)
	client := c.Nodes[0]

	var files []id.File
	for i := 0; i < 60; i++ {
		res, err := client.Insert(InsertSpec{Name: fmt.Sprintf("lv-%d", i), Size: 2048})
		if err != nil || !res.OK {
			t.Fatalf("insert %d: %v %+v", i, err, res)
		}
		files = append(files, res.FileID)
	}

	// Pick a node holding many replicas (never the client) and leave it.
	var leaver *Node
	for _, n := range c.Nodes[1:] {
		if n.StoredBytes() > 0 {
			leaver = n
			break
		}
	}
	if leaver == nil {
		t.Fatal("no replica-holding node")
	}
	lr := leaver.Leave()
	if lr.Offloaded == 0 {
		t.Fatalf("leave offloaded nothing: %+v", lr)
	}
	if lr.Failed > 0 {
		t.Fatalf("leave failed to place %d replicas despite ample space", lr.Failed)
	}
	c.Net.Remove(leaver.ID())

	// Every file must be retrievable immediately — WITHOUT any
	// keep-alive/maintenance round: that is the point of graceful
	// departure.
	for _, f := range files {
		got, err := client.Lookup(f)
		if err != nil || !got.Found {
			t.Fatalf("file %s lost right after graceful leave: %v", f.Short(), err)
		}
	}

	// And the replica invariant holds against the post-departure ring.
	for _, f := range files {
		assertReplicaInvariant(t, c, f, cfg.K)
	}

	// Routes no longer touch the departed node.
	for _, n := range c.Nodes {
		if n == leaver {
			continue
		}
		for _, m := range n.Overlay().LeafSet() {
			if m == leaver.ID() {
				t.Fatalf("node %s still lists the departed node in its leaf set", n.ID().Short())
			}
		}
	}
}

func TestLeaveRehomesDivertedReplicas(t *testing.T) {
	c, f, a, b := divertedCluster(t, 96)
	// The node B holding the diverted replica leaves gracefully; the
	// diverting node A must drop its pointer and re-create the replica.
	lr := b.Leave()
	c.Net.Remove(b.ID())
	if lr.OwnersNotified == 0 {
		t.Fatalf("no diverted-replica owners notified: %+v", lr)
	}

	if target, ok := pointerOf(a, f.id); ok && target == b.ID() {
		t.Fatal("diverting node still points at the departed holder")
	}
	got, err := c.Nodes[1].Lookup(f.id)
	if err != nil || !got.Found {
		t.Fatalf("file with diverted replica lost after holder's graceful leave: %v", err)
	}
}

func TestLeavingNodeRefusesNewReplicas(t *testing.T) {
	c := testCluster(t, 20, smallCfg(), 1<<21, 97)
	n := c.Nodes[5]
	n.mu.Lock()
	n.leaving = true
	n.mu.Unlock()
	rep := n.handleStoreReplica(&storeReplicaMsg{File: id.NewFile("x", nil, 1), Key: id.NodeFromUint64(1), Size: 10, K: 3})
	if rep.Status != storeFailed {
		t.Fatalf("leaving node accepted a replica: %v", rep.Status)
	}
	drep := n.handleDivertStore(&divertStoreMsg{File: id.NewFile("y", nil, 2), Size: 10})
	if drep.Status != divertNoSpace {
		t.Fatalf("leaving node accepted a diverted replica: %v", drep.Status)
	}
	arep := n.handleAcquire(&acquireMsg{File: id.NewFile("z", nil, 3), Key: id.NodeFromUint64(3), Size: 10, K: 3})
	if arep.Status != acquireFailed {
		t.Fatalf("leaving node accepted an acquire: %v", arep.Status)
	}
}
