package past

import (
	"math/rand"
	"testing"

	"past/internal/id"
	"past/internal/obs"
)

// TestClientReplicaReport: the batch local-state RPC must answer
// without routing — each node reports exactly its own holds, and the
// union over the cluster matches the ground-truth HasReplica walk the
// emulator's invariant checker performs.
func TestClientReplicaReport(t *testing.T) {
	c, err := NewCluster(ClusterSpec{
		N:        12,
		Cfg:      DefaultConfig(),
		Capacity: func(i int, r *rand.Rand) int64 { return 1 << 20 },
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}

	var files []id.File
	for i := 0; i < 6; i++ {
		res, err := c.Nodes[i%len(c.Nodes)].Insert(InsertSpec{
			Name:    "report-" + string(rune('a'+i)),
			Content: []byte{byte(i), 1, 2, 3},
		})
		if err != nil || !res.OK {
			t.Fatalf("insert %d: %v %+v", i, err, res)
		}
		files = append(files, res.FileID)
	}
	// Unknown file: every hold must come back empty.
	var absent id.File
	absent[0] = 0xFF
	files = append(files, absent)

	for _, n := range c.Nodes {
		reply, err := n.handleClientRPC(obs.TraceContext{}, &ClientReplicaReport{Files: files})
		if err != nil {
			t.Fatal(err)
		}
		rep, ok := reply.(*ClientReplicaReportReply)
		if !ok {
			t.Fatalf("unexpected reply %T", reply)
		}
		if rep.Node != n.ID() {
			t.Fatalf("reply names %s, served by %s", rep.Node.Short(), n.ID().Short())
		}
		if len(rep.Holds) != len(files) {
			t.Fatalf("got %d holds for %d files", len(rep.Holds), len(files))
		}
		for i, f := range files {
			h := rep.Holds[i]
			if h.Has != n.HasReplica(f) {
				t.Fatalf("node %s file %s: reported Has=%v, ground truth %v",
					n.ID().Short(), f.Short(), h.Has, n.HasReplica(f))
			}
			tgt, hasPtr := pointerOf(n, f)
			if h.HasPtr != hasPtr || (hasPtr && h.Ptr != tgt) {
				t.Fatalf("node %s file %s: pointer mismatch", n.ID().Short(), f.Short())
			}
			if f == absent && (h.Has || h.HasPtr) {
				t.Fatalf("node %s reported a hold for a never-inserted file", n.ID().Short())
			}
		}
	}

	// Every real file has at least one replica somewhere.
	for _, f := range files[:len(files)-1] {
		total := 0
		for _, n := range c.Nodes {
			if n.HasReplica(f) {
				total++
			}
		}
		if total == 0 {
			t.Fatalf("file %s has no replicas in the emulated cluster", f.Short())
		}
	}
}
