package past

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"past/internal/cache"
	"past/internal/ec"
	"past/internal/id"
	"past/internal/obs"
)

// The payload ownership rule (DESIGN.md, "Payload ownership"): a coded
// insert's data fragments are slices of the inserted content, stored by
// reference wherever no socket lies in between. These tests hold the
// two things that rule needs: nobody writes to shared bytes, and nobody
// quietly starts copying them again.

// ecPayloadCluster is a 12-node rs(4,2) netsim cluster without caches
// (every lookup reconstructs) and a 40 KiB payload generator.
func ecPayloadCluster(t *testing.T) (*Cluster, func() []byte) {
	t.Helper()
	c := newECCluster(t, 12, ec.Params{Data: 4, Parity: 2}, 0, func(cfg *Config) { cfg.CachePolicy = cache.None })
	rng := rand.New(rand.NewSource(40))
	return c, func() []byte {
		b := make([]byte, 40<<10)
		rng.Read(b)
		return b
	}
}

// TestECCorruptionDoesNotBleedThroughSharedBuffers corrupts one stored
// fragment on netsim, where that fragment is a slice of the client's
// own buffer and of the coordinator's insert message. The injection
// must damage that one fragment only.
func TestECCorruptionDoesNotBleedThroughSharedBuffers(t *testing.T) {
	c, payload := ecPayloadCluster(t)
	content := payload()
	orig := append([]byte(nil), content...)
	res, err := c.RandomAliveNode().Insert(InsertSpec{Name: "shared", Content: content})
	if err != nil || !res.OK {
		t.Fatalf("insert: %+v, %v", res, err)
	}
	f := res.FileID

	// Fragment 1 is a data shard and always among the first m a lookup
	// fetches, so the lookup below must trip over its corruption.
	const victim = 1
	type held struct {
		node *Node
		idx  int
		data []byte
	}
	var others []held
	var holder *Node
	for _, n := range c.Nodes {
		for _, idx := range fragsOf(n, f) {
			if idx == victim {
				holder = n
				continue
			}
			fr, ok := n.frags.Get(f, idx)
			if !ok {
				t.Fatalf("fragment %d unreadable before the injection", idx)
			}
			others = append(others, held{n, idx, append([]byte(nil), fr.Data...)})
		}
	}
	if holder == nil || len(others) != 5 {
		t.Fatalf("found holder=%v and %d other fragments, want 1 and 5", holder != nil, len(others))
	}
	if !corruptFragment(holder.frags, f, victim, 0) {
		t.Fatal("corruption injection failed")
	}

	if !bytes.Equal(content, orig) {
		t.Fatal("corrupting a stored fragment changed the client's buffer")
	}
	for _, h := range others {
		if fr, ok := h.node.frags.Get(f, h.idx); !ok || !bytes.Equal(fr.Data, h.data) {
			t.Fatalf("corrupting fragment %d changed fragment %d", victim, h.idx)
		}
	}

	// The lookup runs at the object's leader, the node whose repair
	// queue lookup-discovered losses feed.
	leader := c.ByID[c.GlobalClosest(f.Key(), 1)[0]]
	lr, err := leader.Lookup(f)
	if err != nil || !lr.Found || !bytes.Equal(lr.Content, orig) {
		t.Fatalf("lookup past a corrupt fragment: %+v, %v", lr, err)
	}
	var crcFailures int64
	for _, n := range c.Nodes {
		crcFailures += n.frags.CRCFailures()
	}
	if crcFailures != 1 {
		t.Fatalf("ec crc failures = %d, want exactly 1", crcFailures)
	}
	if got := leader.StatsSnapshot().Get(obs.CtrECRepairDepth); got != 1 {
		t.Fatalf("leader's repair queue holds %d items, want the corrupt fragment", got)
	}
}

// allocatedPerOp returns the heap bytes and the number of allocations
// op makes per call, each the smallest of three batches so that a stray
// background allocation cannot fail a budget.
func allocatedPerOp(n int, op func(i int)) (bytes, count uint64) {
	bytes, count = ^uint64(0), ^uint64(0)
	var a, b runtime.MemStats
	for batch := 0; batch < 3; batch++ {
		runtime.ReadMemStats(&a)
		for i := 0; i < n; i++ {
			op(batch*n + i)
		}
		runtime.ReadMemStats(&b)
		bytes = min(bytes, (b.TotalAlloc-a.TotalAlloc)/uint64(n))
		count = min(count, (b.Mallocs-a.Mallocs)/uint64(n))
	}
	return bytes, count
}

// TestAllocBudgetECInsertLookup: with no socket in the way, a coded
// insert allocates its parity, the k stores' copies of the fragment map
// and bookkeeping, and a lookup the joined payload and bookkeeping — no
// copy of a data fragment on the way in or out: one (10 KiB) would break
// the budget. The coordinator's own fragment is not borrowed here, so
// it too is kept uncopied.
func TestAllocBudgetECInsertLookup(t *testing.T) {
	c, payload := ecPayloadCluster(t)
	const ops, slack = 8, 8 << 10
	contents := make([][]byte, 3*ops)
	for i := range contents {
		contents[i] = payload()
	}
	files := make([]id.File, len(contents))
	node := c.RandomAliveNode()

	perInsert, _ := allocatedPerOp(ops, func(i int) {
		res, err := node.Insert(InsertSpec{Name: fmt.Sprintf("budget-%d", i), Content: contents[i]})
		if err != nil || !res.OK {
			t.Fatalf("insert %d: %+v, %v", i, res, err)
		}
		files[i] = res.FileID
	})
	if parity := uint64(2 * 10 << 10); perInsert > parity+slack {
		t.Errorf("a 40 KiB rs(4,2) insert allocated %d bytes; want at most parity %d + %d", perInsert, parity, slack)
	}

	var lr *LookupResult
	perLookup, _ := allocatedPerOp(ops, func(i int) {
		var err error
		if lr, err = node.Lookup(files[i]); err != nil || !lr.Found {
			t.Fatalf("lookup %d: %+v, %v", i, lr, err)
		}
	})
	if !bytes.Equal(lr.Content, contents[len(contents)-1]) {
		t.Fatal("lookup returned the wrong bytes")
	}
	t.Logf("40 KiB rs(4,2) on netsim: insert allocates %d bytes, lookup %d", perInsert, perLookup)
	if perLookup > 40<<10+slack {
		t.Errorf("a 40 KiB rs(4,2) lookup allocated %d bytes; want at most payload %d + %d", perLookup, 40<<10, slack)
	}
}

// TestECEncoderIsSharedAndConcurrent: equal parameters get the same
// coder, from any goroutine, and eight goroutines coding with it at
// once all get the serial answer (run under -race by CI).
func TestECEncoderIsSharedAndConcurrent(t *testing.T) {
	p := ec.Params{Data: 4, Parity: 2}
	enc, err := ecEncoder(p)
	if again, _ := ecEncoder(p); err != nil || again != enc {
		t.Fatalf("ecEncoder(%v) returned %p then %p (err %v)", p, enc, again, err)
	}
	if other, _ := ecEncoder(ec.Params{Data: 3, Parity: 2}); other == enc {
		t.Fatal("different parameters share a coder")
	}
	if _, err := ecEncoder(ec.Params{Data: 0, Parity: 2}); err == nil {
		t.Fatal("invalid parameters produced a coder")
	}

	data := make([]byte, 40<<10)
	rand.New(rand.NewSource(41)).Read(data)
	want, _ := enc.Split(data)
	if err := enc.Encode(want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine, err := ecEncoder(p)
			if err != nil || mine != enc {
				t.Errorf("goroutine %d got coder %p, want %p (err %v)", g, mine, enc, err)
				return
			}
			for round := 0; round < 8; round++ {
				shards, _ := mine.Split(data)
				if err := mine.Encode(shards); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				idx := (g + round) % len(shards)
				dst := make([]byte, len(shards[0]))
				if err := mine.ReconstructInto(shards, idx, dst); err != nil || !bytes.Equal(dst, want[idx]) ||
					!bytes.Equal(shards[4], want[4]) || !bytes.Equal(shards[5], want[5]) {
					t.Errorf("goroutine %d round %d: wrong shards (err %v)", g, round, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
