package past

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"past/internal/chaos"
	"past/internal/ec"
	"past/internal/id"
	"past/internal/wire"
)

// TestCensusMatchesReplicaReport: the census the emulator takes from
// its nodes and the one the live fleet assembles from ClientReplicaReport
// replies that crossed the wire are the same census, bar the failed
// node's holds, and the checker gives both the same verdict.
func TestCensusMatchesReplicaReport(t *testing.T) {
	registerAll()
	c := newECCluster(t, 16, ec.Params{Data: 3, Parity: 2}, 0)
	rng := rand.New(rand.NewSource(40))
	var files []id.File
	// Inserts with content are rs(3,2) objects in EC mode.
	for i := 0; i < 4; i++ {
		content := make([]byte, 3000)
		rng.Read(content)
		res, err := c.RandomAliveNode().Insert(InsertSpec{Name: fmt.Sprintf("coded-%d", i), Content: content})
		if err != nil || !res.OK {
			t.Fatalf("coded insert %d: %+v, %v", i, res, err)
		}
		files = append(files, res.FileID)
	}
	// Size-only inserts are replicated; they fill the nodes until a
	// replica set has to divert a replica.
	diverted := false
	for i := 0; i < 300 && !diverted; i++ {
		res, err := c.RandomAliveNode().Insert(InsertSpec{Name: fmt.Sprintf("replicated-%d", i), Size: int64(64<<10 + rng.Intn(192<<10))})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			continue
		}
		files = append(files, res.FileID)
		for _, n := range c.Census([]id.File{res.FileID}).Nodes {
			if h := n.Holds[0]; h.Has && !h.Primary {
				diverted = true
			}
		}
	}
	if !diverted {
		t.Fatal("no replica was diverted")
	}
	victim := fragHolderNode(c, files[0]).ID()
	c.Fail(victim)

	emulated := c.Census(files)
	fleet := &chaos.Census{Files: files}
	pointers := 0
	for _, nid := range c.Net.Nodes() {
		nh := chaos.NodeHolds{ID: nid, Alive: c.Alive(nid)}
		if nh.Alive {
			reply, err := c.ByID[nid].Deliver(nid, &ClientReplicaReport{Files: files})
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeRequest(requestFrame(t, &wire.Request{Msg: reply.(wire.Message)}))
			if err != nil {
				t.Fatal(err)
			}
			rep := got.Msg.(*ClientReplicaReportReply)
			if rep.Node != nid {
				t.Fatalf("node %s reports as %s", nid.Short(), rep.Node.Short())
			}
			nh.Holds = rep.Holds
			for _, h := range rep.Holds {
				if h.HasPtr {
					pointers++
				}
			}
		}
		fleet.Nodes = append(fleet.Nodes, nh)
	}
	if pointers == 0 {
		t.Fatal("no live node reports a pointer")
	}

	// The emulator keeps the failed node's holds; a dead process has none.
	want := &chaos.Census{Files: files, Nodes: append([]chaos.NodeHolds(nil), emulated.Nodes...)}
	for i := range want.Nodes {
		if want.Nodes[i].ID == victim {
			if want.Nodes[i].Holds == nil || want.Nodes[i].Alive {
				t.Fatal("the emulated census lost the failed node's holds")
			}
			want.Nodes[i].Holds = nil
		}
	}
	if !reflect.DeepEqual(fleet, want) {
		t.Fatal("the replica reports disagree with the emulated census")
	}

	ck := &chaos.Checker{K: 3}
	if a, b := ck.CheckDurability(emulated, 1), ck.CheckDurability(fleet, 1); !reflect.DeepEqual(a, b) {
		t.Fatalf("durability verdicts differ:\n emulated %v\n fleet    %v", a, b)
	}
	a, b := ck.CheckConverged(emulated, 1), ck.CheckConverged(fleet, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("convergence verdicts differ:\n emulated %v\n fleet    %v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("an unrepaired failure left no violation to compare")
	}
}
