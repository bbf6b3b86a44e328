package cachengine

import (
	"sync"

	"past/internal/cache"
	"past/internal/id"
)

// shard is one independently-locked slice of the RAM tier: a policy
// structure (GD-S, LRU, or FIFO heap from internal/cache) plus its
// admission doorkeeper, behind one mutex. Shards never interact; a
// fileId maps to exactly one shard, so per-shard GD-S inflation and
// per-shard doorkeeper state see every operation on their keys.
type shard struct {
	mu sync.Mutex
	c  cache.Cache
	dk *doorkeeper // nil when admission filtering is off
}

func (s *shard) get(f id.File) (int64, []byte, bool) {
	s.mu.Lock()
	size, content, ok := s.c.Get(f)
	s.mu.Unlock()
	return size, content, ok
}

// insert offers a file to the shard. promoted marks flash promotions,
// which bypass the doorkeeper (the flash hit already proved warmth).
// rejected reports a doorkeeper rejection, distinct from the policy
// declining the file (too large, None policy).
func (s *shard) insert(f id.File, size int64, content []byte, promoted bool) (cached, rejected bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Refreshes skip the doorkeeper: the file is already resident, so
	// the admission question was settled when it entered.
	if s.dk != nil && !promoted && !s.c.Contains(f) {
		if !s.dk.allow(f) {
			return false, true
		}
	}
	return s.c.Insert(f, size, content), false
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
