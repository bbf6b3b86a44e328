package cachengine

import (
	"sync"

	"past/internal/cache"
	"past/internal/id"
)

// shard is one independently-locked slice of the RAM tier: a policy
// structure (GD-S, LRU, or FIFO heap from internal/cache) behind one
// mutex. Shards never interact; a fileId maps to exactly one shard, so
// per-shard GD-S inflation sees every operation on its keys.
type shard struct {
	mu sync.Mutex
	c  cache.Cache
}

func (s *shard) get(f id.File) (int64, []byte, bool) {
	s.mu.Lock()
	size, content, ok := s.c.Get(f)
	s.mu.Unlock()
	return size, content, ok
}

func (s *shard) insert(f id.File, size int64, content []byte) bool {
	s.mu.Lock()
	ok := s.c.Insert(f, size, content)
	s.mu.Unlock()
	return ok
}

func (s *shard) contains(f id.File) bool {
	s.mu.Lock()
	ok := s.c.Contains(f)
	s.mu.Unlock()
	return ok
}

func (s *shard) remove(f id.File) bool {
	s.mu.Lock()
	ok := s.c.Remove(f)
	s.mu.Unlock()
	return ok
}

func (s *shard) setLimit(n int64) {
	s.mu.Lock()
	s.c.SetLimit(n)
	s.mu.Unlock()
}

func (s *shard) used() int64 {
	s.mu.Lock()
	n := s.c.Used()
	s.mu.Unlock()
	return n
}

func (s *shard) len() int {
	s.mu.Lock()
	n := s.c.Len()
	s.mu.Unlock()
	return n
}

func (s *shard) evictions() int64 {
	s.mu.Lock()
	_, _, ev := s.c.Stats()
	s.mu.Unlock()
	return ev
}
