package past

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"past/internal/cache"
	"past/internal/cert"
	"past/internal/id"
	"past/internal/pastry"
	"past/internal/store"
)

// testCluster builds a small PAST network with uniform capacities.
func testCluster(t testing.TB, n int, cfg Config, capacity int64, seed int64) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterSpec{
		N:        n,
		Cfg:      cfg,
		Capacity: func(int, *rand.Rand) int64 { return capacity },
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newCard issues a smartcard with the given quota from a throwaway
// issuer.
func newCard(t *testing.T, quota int64) (*cert.Issuer, *cert.Smartcard) {
	t.Helper()
	rng := rand.New(rand.NewSource(4242))
	iss, err := cert.NewIssuer(rng)
	if err != nil {
		t.Fatal(err)
	}
	card, err := iss.IssueCard(rng, quota)
	if err != nil {
		t.Fatal(err)
	}
	return iss, card
}

// pointerOf reports the diverted-replica pointer n holds for f, if any.
func pointerOf(n *Node, f id.File) (id.Node, bool) {
	h := n.Holds([]id.File{f})[0]
	return h.Ptr, h.HasPtr
}

// fragsOf reports the fragment indices n holds for f.
func fragsOf(n *Node, f id.File) []int { return n.Holds([]id.File{f})[0].Frags }

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 16}
	cfg.K = 3
	return cfg
}

func TestInsertLookupRoundTrip(t *testing.T) {
	c := testCluster(t, 40, smallCfg(), 1<<20, 1)
	client := c.RandomAliveNode()
	content := []byte("hello, PAST")
	res, err := client.Insert(InsertSpec{Name: "greeting", Content: content})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Stored != 3 {
		t.Fatalf("insert result: %+v", res)
	}

	// Lookup from several different access points.
	for i := 0; i < 5; i++ {
		got, err := c.RandomAliveNode().Lookup(res.FileID)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Found || !bytes.Equal(got.Content, content) {
			t.Fatalf("lookup %d: %+v", i, got)
		}
	}
}

func TestReplicaPlacementInvariant(t *testing.T) {
	c := testCluster(t, 50, smallCfg(), 1<<20, 2)
	client := c.RandomAliveNode()
	for i := 0; i < 40; i++ {
		res, err := client.Insert(InsertSpec{Name: fmt.Sprintf("file-%d", i), Size: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("insert %d failed: %s", i, res.Reason)
		}
		assertReplicaInvariant(t, c, res.FileID, 3)
	}
}

// assertReplicaInvariant checks that each of the k globally closest live
// nodes holds a replica of f or a pointer to a live node holding one.
func assertReplicaInvariant(t *testing.T, c *Cluster, f id.File, k int) {
	t.Helper()
	for _, nid := range c.GlobalClosest(f.Key(), k) {
		n := c.ByID[nid]
		if n.HasReplica(f) {
			continue
		}
		if target, ok := pointerOf(n, f); ok {
			if !c.Net.Alive(target) {
				t.Fatalf("node %s points to dead node %s for %s", nid.Short(), target.Short(), f.Short())
			}
			if !c.ByID[target].HasReplica(f) {
				t.Fatalf("node %s points to %s which lacks %s", nid.Short(), target.Short(), f.Short())
			}
			continue
		}
		t.Fatalf("node %s (among %d closest) has neither replica nor pointer for %s",
			nid.Short(), k, f.Short())
	}
}

func TestLookupNotFound(t *testing.T) {
	c := testCluster(t, 20, smallCfg(), 1<<20, 3)
	res, err := c.RandomAliveNode().Lookup(id.NewFile("ghost", nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("phantom file found")
	}
}

func TestInsertZeroSizeFile(t *testing.T) {
	c := testCluster(t, 20, smallCfg(), 1<<20, 4)
	res, err := c.RandomAliveNode().Insert(InsertSpec{Name: "empty", Size: 0})
	if err != nil || !res.OK {
		t.Fatalf("zero-size insert: %v %+v", err, res)
	}
	got, err := c.RandomAliveNode().Lookup(res.FileID)
	if err != nil || !got.Found || got.Size != 0 {
		t.Fatalf("zero-size lookup: %v %+v", err, got)
	}
}

func TestReplicaDiversion(t *testing.T) {
	// Heterogeneous capacities — the paper's primary cause of storage
	// imbalance: small nodes soon reject primaries under tpri, while the
	// large leaf-set members still accept diverted replicas under tdiv.
	cfg := smallCfg()
	cfg.TPri = 0.1
	cfg.TDiv = 0.05
	c, err := NewCluster(ClusterSpec{
		N:   40,
		Cfg: cfg,
		Capacity: func(i int, _ *rand.Rand) int64 {
			if i%2 == 0 {
				return 30_000
			}
			return 300_000
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := c.RandomAliveNode()

	diverted := 0
	var files []id.File
	for i := 0; i < 300; i++ {
		res, err := client.Insert(InsertSpec{Name: fmt.Sprintf("f%d", i), Size: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			break // storage exhausted; fine
		}
		diverted += res.Diverted
		files = append(files, res.FileID)
	}
	if diverted == 0 {
		t.Fatal("no replica diversion occurred; test should force some")
	}
	// Every successfully inserted file must satisfy the invariant and be
	// retrievable.
	for _, f := range files {
		assertReplicaInvariant(t, c, f, 3)
		got, err := c.RandomAliveNode().Lookup(f)
		if err != nil || !got.Found {
			t.Fatalf("lookup %s after diversion: %v %+v", f.Short(), err, got)
		}
	}
}

func TestFileDiversionRetries(t *testing.T) {
	// Same salt forces a fileId collision on the first attempt; the
	// client must re-salt (file diversion) and then succeed.
	c := testCluster(t, 30, smallCfg(), 1<<20, 6)
	client := c.RandomAliveNode()
	first, err := client.Insert(InsertSpec{Name: "dup", Size: 100, Salt: 77})
	if err != nil || !first.OK {
		t.Fatalf("first insert: %v %+v", err, first)
	}
	second, err := client.Insert(InsertSpec{Name: "dup", Size: 100, Salt: 77})
	if err != nil {
		t.Fatal(err)
	}
	if !second.OK || second.Attempts < 2 {
		t.Fatalf("collision should force a re-salted retry: %+v", second)
	}
	if second.FileID == first.FileID {
		t.Fatal("retry must produce a fresh fileId")
	}
}

func TestInsertFailsWhenFull(t *testing.T) {
	cfg := smallCfg()
	c := testCluster(t, 15, cfg, 2_000, 7)
	client := c.RandomAliveNode()
	// Fill the system with inserts until they fail, then verify failure
	// reporting: 4 attempts, OK=false.
	var failed *InsertResult
	for i := 0; i < 500; i++ {
		res, err := client.Insert(InsertSpec{Name: fmt.Sprintf("fill%d", i), Size: 600})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			failed = res
			break
		}
	}
	if failed == nil {
		t.Fatal("system never filled up")
	}
	if failed.Attempts != 4 {
		t.Fatalf("failed insert attempts = %d; want 4 (1 + 3 file diversions)", failed.Attempts)
	}
	if failed.Reason == "" {
		t.Fatal("failure must carry a reason")
	}
}

func TestReclaim(t *testing.T) {
	cfg := smallCfg()
	cfg.CachePolicy = cache.None // so lookups cannot be served from caches
	c := testCluster(t, 30, cfg, 1<<20, 8)
	client := c.RandomAliveNode()
	res, err := client.Insert(InsertSpec{Name: "doomed", Size: 5000})
	if err != nil || !res.OK {
		t.Fatalf("insert: %v %+v", err, res)
	}

	before := c.StoredBytes()
	rr, err := client.Reclaim(res.FileID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Found || rr.Freed != 3*5000 {
		t.Fatalf("reclaim: %+v", rr)
	}
	if c.StoredBytes() != before-3*5000 {
		t.Fatalf("stored bytes %d; want %d", c.StoredBytes(), before-3*5000)
	}
	got, err := client.Lookup(res.FileID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Found {
		t.Fatal("file still found after reclaim with caching disabled")
	}
}

func TestReclaimWeakSemanticsWithCache(t *testing.T) {
	// With caching enabled, reclaim does NOT guarantee the file is gone:
	// cached copies may still serve lookups (the paper's weak semantics).
	c := testCluster(t, 30, smallCfg(), 1<<20, 9)
	client := c.RandomAliveNode()
	res, _ := client.Insert(InsertSpec{Name: "soft", Size: 100})
	// Populate caches along a lookup path.
	if _, err := client.Lookup(res.FileID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Reclaim(res.FileID, nil); err != nil {
		t.Fatal(err)
	}
	// No node holds a replica anymore.
	for _, n := range c.Nodes {
		if n.HasReplica(res.FileID) {
			t.Fatal("replica survived reclaim")
		}
	}
	// But a cached copy may exist somewhere; that is permitted (weaker
	// than delete). Nothing to assert beyond "no crash": lookups may
	// succeed or fail depending on cache contents.
	if _, err := client.Lookup(res.FileID); err != nil {
		t.Fatal(err)
	}
}

func TestCachingAlongLookupPath(t *testing.T) {
	c := testCluster(t, 60, smallCfg(), 1<<22, 10)
	client := c.RandomAliveNode()
	res, err := client.Insert(InsertSpec{Name: "popular", Size: 4096})
	if err != nil || !res.OK {
		t.Fatalf("insert: %v %+v", err, res)
	}

	// First lookup from a fixed remote node, then again: the second one
	// must cost no more hops, and the client node itself should now have
	// a cached copy making the repeat lookup free.
	far := c.RandomAliveNode()
	first, err := far.Lookup(res.FileID)
	if err != nil || !first.Found {
		t.Fatalf("first lookup: %v %+v", err, first)
	}
	second, err := far.Lookup(res.FileID)
	if err != nil || !second.Found {
		t.Fatalf("second lookup: %v %+v", err, second)
	}
	if second.Hops != 0 {
		t.Fatalf("second lookup cost %d hops; want 0 (cached at access point)", second.Hops)
	}
	if !second.FromCache && !far.HasReplica(res.FileID) {
		t.Fatal("second lookup neither cached nor local replica")
	}
}

func TestCacheDisplacedByReplicas(t *testing.T) {
	cfg := smallCfg()
	c := testCluster(t, 20, cfg, 50_000, 11)
	client := c.RandomAliveNode()
	res, err := client.Insert(InsertSpec{Name: "cached", Size: 1000})
	if err != nil || !res.OK {
		t.Fatal("seed insert failed")
	}
	for i := 0; i < 3; i++ {
		if _, err := client.Lookup(res.FileID); err != nil {
			t.Fatal(err)
		}
	}
	// Fill storage; caches must shrink, never pushing replicas out.
	for i := 0; i < 200; i++ {
		r, err := client.Insert(InsertSpec{Name: fmt.Sprintf("filler%d", i), Size: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if !r.OK {
			break
		}
	}
	for _, n := range c.Nodes {
		if n.StoredBytes() > n.Capacity() {
			t.Fatalf("node %s overcommitted", n.ID().Short())
		}
	}
}

func TestQuotaEnforcedOnInsert(t *testing.T) {
	c := testCluster(t, 20, smallCfg(), 1<<20, 12)
	iss, card := newCard(t, 1<<14) // 16 KiB quota
	cfg := c.Nodes[0].cfg
	_ = cfg
	_ = iss
	client := c.RandomAliveNode()

	// k=3 * 4096 = 12288 fits the quota; a second identical insert would
	// exceed it.
	res, err := client.Insert(InsertSpec{Name: "a", Content: make([]byte, 4096), Owner: card})
	if err != nil || !res.OK {
		t.Fatalf("insert: %v %+v", err, res)
	}
	if _, err := client.Insert(InsertSpec{Name: "b", Content: make([]byte, 4096), Owner: card}); err == nil {
		t.Fatal("quota-exceeding insert must error")
	}
	// Reclaim credits the quota; then the insert fits.
	if _, err := client.Reclaim(res.FileID, card); err != nil {
		t.Fatal(err)
	}
	if res2, err := client.Insert(InsertSpec{Name: "b", Content: make([]byte, 4096), Owner: card}); err != nil || !res2.OK {
		t.Fatalf("post-reclaim insert: %v %+v", err, res2)
	}
}

func TestKExceedingLeafSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for k > l/2+1")
		}
	}()
	cfg := DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 4}
	cfg.K = 5
	NewWithStore(id.NodeFromUint64(1), nil, cfg, store.New(1000), 1)
}

// TestStatisticalFileBalance verifies the section 2 premise: uniformly
// distributed nodeIds and fileIds roughly balance the number of files
// per node, before any explicit storage management is needed.
func TestStatisticalFileBalance(t *testing.T) {
	cfg := smallCfg()
	c := testCluster(t, 50, cfg, 1<<26, 70)
	client := c.Nodes[0]
	const files = 600
	for i := 0; i < files; i++ {
		res, err := client.Insert(InsertSpec{Name: fmt.Sprintf("bal-%d", i), Size: 100})
		if err != nil || !res.OK {
			t.Fatalf("insert %d: %v %+v", i, err, res)
		}
	}
	counts := make([]int, 0, len(c.Nodes))
	total := 0
	for _, n := range c.Nodes {
		entries, _ := n.StoreSnapshot()
		counts = append(counts, len(entries))
		total += len(entries)
	}
	if total != files*cfg.K {
		t.Fatalf("replica count %d; want %d", total, files*cfg.K)
	}
	mean := float64(total) / float64(len(counts))
	max := 0
	var sq float64
	for _, cnt := range counts {
		if cnt > max {
			max = cnt
		}
		d := float64(cnt) - mean
		sq += d * d
	}
	// A node's load is proportional to its nodeId-space arc, which is
	// exponentially distributed: per-node counts have CV around 1/sqrt(k)
	// and the maximum arc is ~ln(N) times the mean. "Approximately
	// balanced" (section 2) means within those statistics, not Poisson
	// tightness — which is exactly why the paper needs explicit storage
	// management on top.
	cv := 0.0
	if mean > 0 {
		cv = (sq / float64(len(counts))) / (mean * mean) // squared CV
	}
	if cv > 1.2 {
		t.Fatalf("per-node load CV^2 = %.2f; far beyond arc statistics", cv)
	}
	if float64(max) > 1.8*math.Log(float64(len(counts)))*mean {
		t.Fatalf("most loaded node has %d replicas vs mean %.1f; beyond max-arc statistics", max, mean)
	}
}

func TestInsertRejectsOversizedK(t *testing.T) {
	c := testCluster(t, 20, smallCfg(), 1<<20, 71) // l=16 -> max k = 9
	if _, err := c.Nodes[0].Insert(InsertSpec{Name: "k", Size: 10, K: 10}); err == nil {
		t.Fatal("k > l/2+1 must be rejected")
	}
	if res, err := c.Nodes[0].Insert(InsertSpec{Name: "k", Size: 10, K: 9}); err != nil || !res.OK {
		t.Fatalf("k = l/2+1 must work: %v %+v", err, res)
	}
}
