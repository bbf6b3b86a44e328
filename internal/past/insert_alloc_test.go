package past

import (
	"fmt"
	"math/rand"
	"testing"

	"past/internal/cache"
)

// TestAllocBudgetSimInsert: a routed size-only insert on the emulator —
// what every storage experiment replays hundreds of thousands of times —
// allocates its messages and replies and nothing per replica held; a
// diverting one adds its free-space polls' replies and one candidate
// list per replica. The parent of this budget made 19 and 109.
func TestAllocBudgetSimInsert(t *testing.T) {
	for _, c := range []struct {
		name   string
		divert bool
		budget uint64
	}{
		{"primary", false, 16},
		{"diverted", true, 85},
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
