package cachengine

import (
	"sync"
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

// singleLockCache is the pre-engine node cache: one cache.Cache behind
// one mutex. The baseline the sharded engine is measured against.
type singleLockCache struct {
	mu sync.Mutex
	c  *cache.Cache
}

func (s *singleLockCache) Get(f id.File) (int64, []byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Get(f)
}

func (s *singleLockCache) Insert(f id.File, size int64, content []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Insert(f, size, content)
}

// BenchmarkEngineGetParallel measures Get throughput on the sharded
// engine under GOMAXPROCS-way parallelism (run with -cpu 8 for the
// acceptance number).
func BenchmarkEngineGetParallel(b *testing.B) {
	e := mustNew(b, Config{Policy: cache.GDS, Shards: 64})
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

// BenchmarkSingleLockGetParallel is the same workload against the
// single-mutex cache.Cache the node used before the engine.
func BenchmarkSingleLockGetParallel(b *testing.B) {
	s := &singleLockCache{c: cache.New(cache.GDS, 1)}
	s.c.SetLimit(1 << 30)
	keys := benchKeys(s.Insert, 4096)

	var ctr atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := ctr.Add(1) * 2654435761
		for pb.Next() {
			s.Get(keys[i%uint64(len(keys))])
			i++
		}
	})
}

// BenchmarkEngineInsertParallel exercises the write path: refreshing
// inserts over a fixed key set.
func BenchmarkEngineInsertParallel(b *testing.B) {
	e := mustNew(b, Config{Policy: cache.GDS, Shards: 64})
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

// BenchmarkSingleLockInsertParallel is the matching baseline.
func BenchmarkSingleLockInsertParallel(b *testing.B) {
	s := &singleLockCache{c: cache.New(cache.GDS, 1)}
	s.c.SetLimit(1 << 30)
	keys := benchKeys(s.Insert, 4096)

	var ctr atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := ctr.Add(1) * 2654435761
		for pb.Next() {
			s.Insert(keys[i%uint64(len(keys))], 256, nil)
			i++
		}
	})
}
