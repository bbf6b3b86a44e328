package past

import (
	"context"
	"fmt"
	"testing"
	"time"

	"past/internal/id"
	"past/internal/netsim"
	"past/internal/obs"
)

// hedgeCounts reads the hedge counters off a node's registry.
func hedgeCounts(n *Node) (hedges, wins int64) {
	return n.stats.Hedges.Load(), n.stats.HedgeWins.Load()
}

func lookupFound(lr *LookupResult) bool { return lr.Found }

// TestHedgeConcurrentHedgeWins drives the concurrent hedge with a
// primary that never answers: the hedge must fire after HedgeDelay,
// supply the result (exactly one winner), and the losing primary's
// context must be cancelled.
func TestHedgeConcurrentHedgeWins(t *testing.T) {
	n := &Node{stats: &obs.NodeStats{}}
	pol := RetryPolicy{Hedge: true, HedgeDelay: time.Millisecond}.withDefaults()

	primaryCancelled := make(chan error, 1)
	route := func(ctx context.Context, avoid ...id.Node) (*LookupResult, error) {
		if len(avoid) == 0 { // the primary: hang until cancelled
			<-ctx.Done()
			primaryCancelled <- ctx.Err()
			return nil, netsim.CtxErr(ctx)
		}
		return &LookupResult{Found: true, Size: 7}, nil
	}
	res, err := hedgeConcurrent(n, context.Background(), pol, id.NodeFromUint64(1), route, lookupFound)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Size != 7 {
		t.Fatalf("winner must be the hedge's result, got %+v", res)
	}
	select {
	case cerr := <-primaryCancelled:
		if cerr != context.Canceled {
			t.Fatalf("losing primary saw %v; want context.Canceled", cerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("losing primary was never cancelled")
	}
	if h, w := hedgeCounts(n); h != 1 || w != 1 {
		t.Fatalf("hedges=%d wins=%d; want exactly one winning hedge", h, w)
	}
}

// TestHedgeConcurrentPrimaryWins is the mirror: a slow-but-successful
// primary outlasts the hedge delay, a hedge launches and hangs, the
// primary's result wins, and the losing hedge is cancelled.
func TestHedgeConcurrentPrimaryWins(t *testing.T) {
	n := &Node{stats: &obs.NodeStats{}}
	pol := RetryPolicy{Hedge: true, HedgeDelay: time.Millisecond}.withDefaults()

	hedgeLaunched := make(chan struct{})
	hedgeCancelled := make(chan error, 1)
	route := func(ctx context.Context, avoid ...id.Node) (*LookupResult, error) {
		if len(avoid) == 0 { // the primary: answer after the hedge is up
			<-hedgeLaunched
			return &LookupResult{Found: true, Size: 3}, nil
		}
		close(hedgeLaunched)
		<-ctx.Done()
		hedgeCancelled <- ctx.Err()
		return nil, netsim.CtxErr(ctx)
	}
	res, err := hedgeConcurrent(n, context.Background(), pol, id.NodeFromUint64(1), route, lookupFound)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Size != 3 {
		t.Fatalf("winner must be the primary's result, got %+v", res)
	}
	select {
	case cerr := <-hedgeCancelled:
		if cerr != context.Canceled {
			t.Fatalf("losing hedge saw %v; want context.Canceled", cerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("losing hedge was never cancelled")
	}
	if h, w := hedgeCounts(n); h != 1 || w != 0 {
		t.Fatalf("hedges=%d wins=%d; want exactly one losing hedge", h, w)
	}
}

// TestHedgeConcurrentCountsHedgeOnContextExpiry: a hedge that was
// launched is counted even when the caller's context expires while both
// attempts are still in flight — "once per hedged attempt launched".
func TestHedgeConcurrentCountsHedgeOnContextExpiry(t *testing.T) {
	n := &Node{stats: &obs.NodeStats{}}
	pol := RetryPolicy{Hedge: true, HedgeDelay: time.Millisecond}.withDefaults()

	// Both attempts block past the caller's cancellation, so the race
	// loop can only leave through its ctx.Done arm.
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	defer close(release)
	route := func(_ context.Context, avoid ...id.Node) (*LookupResult, error) {
		if len(avoid) > 0 { // the hedge is up: the caller gives up
			cancel()
		}
		<-release
		return nil, netsim.ErrTimeout
	}
	if _, err := hedgeConcurrent(n, ctx, pol, id.NodeFromUint64(1), route, lookupFound); err == nil {
		t.Fatal("cancelled hedged attempt returned no error")
	}
	if h, w := hedgeCounts(n); h != 1 || w != 0 {
		t.Fatalf("hedges=%d wins=%d; want the launched hedge counted once, no win", h, w)
	}
}

// TestHedgedLookupThroughAlternateEntry exercises the sequential
// failover hedge end to end: the client's first hop toward a file dies,
// the primary attempt fails over inside routing, and the lookup still
// succeeds under the policy without the client seeing an error.
func TestHedgedLookupThroughAlternateEntry(t *testing.T) {
	cfg := smallCfg()
	cfg.Retry = &RetryPolicy{MaxAttempts: 3, Hedge: true}
	c := testCluster(t, 40, cfg, 1<<20, 31)
	client := c.RandomAliveNode()
	res, err := client.Insert(InsertSpec{Name: "hedged", Size: 900})
	if err != nil || !res.OK {
		t.Fatalf("insert: %v %+v", err, res)
	}
	hop := client.Overlay().FirstHop(res.FileID.Key())
	if hop.IsZero() {
		t.Skip("client is its own access point for this key")
	}
	c.Fail(hop)
	defer c.Recover(hop)
	lr, err := client.Lookup(res.FileID)
	if err != nil || !lr.Found {
		t.Fatalf("lookup with dead first hop: %v %+v", err, lr)
	}
}

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
