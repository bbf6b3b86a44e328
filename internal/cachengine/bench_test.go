package cachengine

import (
	"sync/atomic"
	"testing"

	"past/internal/cache"
	"past/internal/id"
)

// benchKeys builds a resident working set and returns its ids.
func benchKeys(insert func(id.File, int64, []byte) bool, n int) []id.File {
	keys := make([]id.File, n)
	for i := range keys {
		keys[i] = efid(uint64(i))
		insert(keys[i], 256, nil)
	}
	return keys
}

// BenchmarkEngineGetParallel measures Get throughput on the engine's
// one-lock RAM tier under GOMAXPROCS-way parallelism (-cpu N sets the
// number of contending goroutines).
func BenchmarkEngineGetParallel(b *testing.B) {
	e := mustNew(b, Config{Policy: cache.GDS})
	e.SetLimit(1 << 30)
	keys := benchKeys(e.Insert, 4096)

	var ctr atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := ctr.Add(1) * 2654435761
		for pb.Next() {
			e.Get(keys[i%uint64(len(keys))])
			i++
		}
	})
}

// BenchmarkEngineInsertParallel exercises the write path: refreshing
// inserts over a fixed key set.
func BenchmarkEngineInsertParallel(b *testing.B) {
	e := mustNew(b, Config{Policy: cache.GDS})
	e.SetLimit(1 << 30)
	keys := benchKeys(e.Insert, 4096)

	var ctr atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := ctr.Add(1) * 2654435761
		for pb.Next() {
			e.Insert(keys[i%uint64(len(keys))], 256, nil)
			i++
		}
	})
}
