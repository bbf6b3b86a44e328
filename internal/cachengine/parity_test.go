package cachengine

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"past/internal/cache"
	"past/internal/id"
)

// evictRec records one eviction for order comparison.
type evictRec struct {
	file id.File
	size int64
}

// TestShardedParity: a sharded engine on a serialized trace must
// behave exactly like independent reference cache.Cache instances
// routed by the same shard function — same results, same residents,
// and the same per-shard eviction order. Sharding partitions the key
// space; it must not change what any partition does.
func TestShardedParity(t *testing.T) {
	const nShards = 4
	for _, pol := range []cache.Policy{cache.GDS, cache.LRU, cache.FIFO} {
		eng := mustNew(t, Config{Policy: pol, Shards: nShards})

		ref := make([]*cache.Cache, nShards)
		engEv := make([][]evictRec, nShards)
		refEv := make([][]evictRec, nShards)
		for i := range ref {
			i := i
			ref[i] = cache.New(pol, 1)
			ref[i].OnEvict = func(f id.File, size int64, _ []byte) {
				refEv[i] = append(refEv[i], evictRec{f, size})
			}
			eng.shard[i].c.OnEvict = func(f id.File, size int64, _ []byte) {
				engEv[i] = append(engEv[i], evictRec{f, size})
			}
		}
		shardIdx := func(f id.File) int {
			return int(binary.LittleEndian.Uint32(f[0:4]) & (nShards - 1))
		}
		setRefLimit := func(n int64) {
			// Mirror Engine.SetLimit's base+remainder split.
			base, rem := n/nShards, n%nShards
			for i := range ref {
				share := base
				if int64(i) < rem {
					share++
				}
				ref[i].SetLimit(share)
			}
		}

		eng.SetLimit(8192)
		setRefLimit(8192)

		r := rand.New(rand.NewSource(int64(pol) + 99))
		for i := 0; i < 20000; i++ {
			f := efid(uint64(r.Intn(256)))
			si := shardIdx(f)
			switch r.Intn(12) {
			case 0:
				if got, want := eng.Remove(f), ref[si].Remove(f); got != want {
					t.Fatalf("%v op %d: Remove=%v ref=%v", pol, i, got, want)
				}
			case 1:
				n := int64(4096 + r.Intn(8192))
				eng.SetLimit(n)
				setRefLimit(n)
			case 2, 3, 4, 5:
				size := int64(1 + r.Intn(700))
				if got, want := eng.Insert(f, size, nil), ref[si].Insert(f, size, nil); got != want {
					t.Fatalf("%v op %d: Insert=%v ref=%v", pol, i, got, want)
				}
			default:
				gs, _, gok := eng.Get(f)
				ws, _, wok := ref[si].Get(f)
				if gok != wok || gs != ws {
					t.Fatalf("%v op %d: Get=(%d,%v) ref=(%d,%v)", pol, i, gs, gok, ws, wok)
				}
			}
		}

		var refUsed int64
		var refLen int
		for i := range ref {
			refUsed += ref[i].Used()
			refLen += ref[i].Len()
		}
		if eng.Used() != refUsed || eng.Len() != refLen {
			t.Fatalf("%v: used/len (%d,%d) ref (%d,%d)", pol, eng.Used(), eng.Len(), refUsed, refLen)
		}
		for i := range ref {
			if len(engEv[i]) != len(refEv[i]) {
				t.Fatalf("%v shard %d: %d evictions, ref %d", pol, i, len(engEv[i]), len(refEv[i]))
			}
			for j := range engEv[i] {
				if engEv[i][j] != refEv[i][j] {
					t.Fatalf("%v shard %d eviction %d: %x/%d, ref %x/%d", pol, i, j,
						engEv[i][j].file[:4], engEv[i][j].size, refEv[i][j].file[:4], refEv[i][j].size)
				}
			}
		}
	}
}
