package past

import (
	"fmt"
	"math/rand"
	"testing"

	"past/internal/cache"
	"past/internal/id"
)

// TestAllocBudgetSimInsert: a routed size-only insert on the emulator —
// what every storage experiment replays hundreds of thousands of times —
// allocates its messages and replies and nothing per replica held; a
// diverting one adds only its free-space polls' and divert store's
// messages and replies: the candidate list, the choice among them and
// the backup node cost nothing on the heap, a reply that carries only a
// status is a shared value, and a node answers every free-space poll
// with its one reply. The counts are 10 and 16; the budgets allow the
// one more that a -race build makes. A diverting insert made 19 while a
// node allocated a new free-space reply whenever its free space had
// changed, 58 while every free-space reply was allocated, 64 while
// every store reply was too, and 73 before that (a leaf-set copy, a
// replica-set copy and a candidate slice per diverted replica).
func TestAllocBudgetSimInsert(t *testing.T) {
	for _, c := range []struct {
		name   string
		divert bool
		budget uint64
	}{
		{"primary", false, 11},
		{"diverted", true, 17},
	} {
		cfg := smallCfg()
		cfg.CachePolicy = cache.None
		if c.divert {
			cfg.TPri = 1e-9 // below any file's share of free space: all k replicas divert
		}
		cl, err := NewCluster(ClusterSpec{
			N: 24, Cfg: cfg, Seed: 8,
			Capacity: func(int, *rand.Rand) int64 { return 1 << 40 },
		})
		if err != nil {
			t.Fatal(err)
		}
		client := cl.Nodes[0]
		diverted := 0
		_, perInsert := allocatedPerOp(64, func(i int) {
			res, err := client.Insert(InsertSpec{Name: fmt.Sprintf("budget-%d", i), Size: 4096, Salt: uint64(i) + 1})
			if err != nil || !res.OK {
				t.Fatalf("%s insert %d: %+v, %v", c.name, i, res, err)
			}
			diverted += res.Diverted
		})
		if (diverted > 0) != c.divert {
			t.Fatalf("%s: %d replicas diverted", c.name, diverted)
		}
		t.Logf("%s: %d allocations per insert", c.name, perInsert)
		if perInsert > c.budget {
			t.Errorf("%s: a size-only netsim insert made %d allocations; budget %d", c.name, perInsert, c.budget)
		}
	}
}

// TestAllocBudgetSimLookup: an untraced routed lookup on the emulator
// allocates its messages and replies. Trace intent rides the context,
// so an operation nobody traces pays nothing for it: the budget is the
// count measured before the route calls were unified, when untraced
// lookups took a route call of their own.
func TestAllocBudgetSimLookup(t *testing.T) {
	const budget = 5
	cfg := smallCfg()
	cfg.CachePolicy = cache.None
	cl, err := NewCluster(ClusterSpec{
		N: 24, Cfg: cfg, Seed: 9,
		Capacity: func(int, *rand.Rand) int64 { return 1 << 40 },
	})
	if err != nil {
		t.Fatal(err)
	}
	files := make([]id.File, 16)
	for i := range files {
		res, err := cl.Nodes[0].Insert(InsertSpec{Name: fmt.Sprintf("lookup-%d", i), Size: 4096, Salt: uint64(i) + 1})
		if err != nil || !res.OK {
			t.Fatalf("insert %d: %+v, %v", i, res, err)
		}
		files[i] = res.FileID
	}
	hops := 0
	// 48 lookups per batch: every batch visits the same (client, file)
	// pairs, so the per-lookup count is exact.
	_, perLookup := allocatedPerOp(48, func(i int) {
		res, err := cl.Nodes[i%len(cl.Nodes)].Lookup(files[i%len(files)])
		if err != nil || !res.Found {
			t.Fatalf("lookup %d: %+v, %v", i, res, err)
		}
		hops += res.Hops
	})
	if hops == 0 {
		t.Fatal("no lookup was routed")
	}
	t.Logf("%d allocations per lookup", perLookup)
	if perLookup > budget {
		t.Errorf("an untraced netsim lookup made %d allocations; budget %d", perLookup, budget)
	}
}
