package past

import (
	"fmt"
	"testing"

	"past/internal/id"
	"past/internal/obs"
)

// TestFileDiversionsAccounting pins FileDiversions == Attempts-1 on
// every path: clean success, success after a re-salted retry, and
// exhausted failure.
func TestFileDiversionsAccounting(t *testing.T) {
	c := testCluster(t, 20, smallCfg(), 1<<20, 33)
	client := c.RandomAliveNode()

	clean, err := client.Insert(InsertSpec{Name: "clean", Size: 100})
	if err != nil || !clean.OK {
		t.Fatalf("insert: %v %+v", err, clean)
	}
	if clean.Attempts != 1 || clean.FileDiversions != 0 {
		t.Fatalf("clean insert: attempts=%d diversions=%d; want 1, 0", clean.Attempts, clean.FileDiversions)
	}

	// Re-inserting the same name+salt collides with the live file,
	// forcing at least one file diversion before succeeding.
	if _, err := client.Insert(InsertSpec{Name: "dup", Size: 100, Salt: 9}); err != nil {
		t.Fatal(err)
	}
	diverted, err := client.Insert(InsertSpec{Name: "dup", Size: 100, Salt: 9})
	if err != nil || !diverted.OK {
		t.Fatalf("re-salted insert: %v %+v", err, diverted)
	}
	if diverted.Attempts < 2 || diverted.FileDiversions != diverted.Attempts-1 {
		t.Fatalf("diverted success: attempts=%d diversions=%d; want diversions == attempts-1 >= 1",
			diverted.Attempts, diverted.FileDiversions)
	}

	// Fill a tiny cluster until inserts fail outright.
	full := testCluster(t, 15, smallCfg(), 2_000, 34)
	fc := full.RandomAliveNode()
	var failed *InsertResult
	for i := 0; i < 500 && failed == nil; i++ {
		r, err := fc.Insert(InsertSpec{Name: fmt.Sprintf("fill%d", i), Size: 600})
		if err != nil {
			t.Fatal(err)
		}
		if !r.OK {
			failed = r
		}
	}
	if failed == nil {
		t.Fatal("system never filled up")
	}
	if failed.FileDiversions != failed.Attempts-1 {
		t.Fatalf("failed insert: attempts=%d diversions=%d; want diversions == attempts-1",
			failed.Attempts, failed.FileDiversions)
	}
}

// TestPartialInsert verifies the degradation accounting: with
// PartialInsert set and one replica-set member dead, an insert succeeds
// with Stored < k and Partial set, the client's registry records the
// debt, and replica maintenance settles it once the member recovers.
func TestPartialInsert(t *testing.T) {
	cfg := smallCfg()
	cfg.PartialInsert = true
	c := testCluster(t, 30, cfg, 1<<20, 35)

	// Pick a fileId and kill one of its replica set (not the coordinator,
	// which must stay reachable to run the insert).
	fid := id.NewFile("partial", nil, 4242)
	closest := c.GlobalClosest(fid.Key(), 3)
	victim := closest[1]
	c.Fail(victim)

	client := c.ByID[closest[0]]
	res, err := client.Insert(InsertSpec{Name: "partial", Salt: 4242, Size: 800})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || !res.Partial || res.Stored != 2 {
		t.Fatalf("insert with dead member: %+v; want OK partial with 2 replicas", res)
	}
	if got := client.StatsSnapshot().Get(obs.CtrPartialInserts); got != 1 {
		t.Fatalf("registry recorded %d partial inserts; want 1", got)
	}

	// Recovery + maintenance must settle the repair debt.
	c.Recover(victim)
	for i := 0; i < 3; i++ {
		c.MaintainAll()
	}
	replicas := 0
	for _, n := range c.Nodes {
		if n.HasReplica(res.FileID) {
			replicas++
		}
	}
	if replicas != 3 {
		t.Fatalf("replicas after heal = %d; want 3", replicas)
	}
}
