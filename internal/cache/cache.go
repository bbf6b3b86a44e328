// Package cache implements PAST's file cache (section 4 of the paper).
//
// PAST nodes use the unused portion of their advertised disk space to
// cache files that are routed through them during insert and lookup
// operations; cached copies can be evicted at any time, in particular
// when the node accepts a new primary or diverted replica.
//
// The insertion policy caches a file if its size is less than a fraction
// c of the node's current cache capacity. The replacement policy is
// GreedyDual-Size (Cao & Irani) with cost c(d)=1, which maximizes hit
// rate: every cached file d carries a weight H(d) = L + c(d)/s(d); the
// file with minimal H is evicted and its weight becomes the new
// inflation value L. LRU and FIFO are provided for comparison (the
// paper's Figure 8 compares GD-S against LRU and no caching).
package cache

import (
	"fmt"

	"past/internal/id"
)

// Policy selects the replacement algorithm.
type Policy uint8

// Replacement policies.
const (
	// None disables caching entirely.
	None Policy = iota
	// LRU evicts the least recently used file.
	LRU
	// GDS is GreedyDual-Size with uniform cost, the paper's policy.
	GDS
	// FIFO evicts the oldest-inserted file; used by ablation benches.
	FIFO
)

func (p Policy) String() string {
	switch p {
	case None:
		return "none"
	case LRU:
		return "lru"
	case GDS:
		return "gd-s"
	case FIFO:
		return "fifo"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

type item struct {
	file    id.File
	size    int64
	content []byte // nil when the owner runs size-only accounting
	idx     int    // heap index
}

// slot is one heap entry. The eviction priority sits in the slot, not
// the item, so comparing two entries reads the heap's own array and
// never dereferences an item.
type slot struct {
	pri float64 // smallest evicted first
	it  *item
}

// evictHeap is a binary min-heap of slots by priority. push, pop,
// remove, fix, up and down are container/heap's, transcribed for the
// concrete type: every comparison and swap happens in the same order,
// so entries of equal priority leave in the same order too.
type evictHeap []slot

func (h evictHeap) less(i, j int) bool { return h[i].pri < h[j].pri }

func (h evictHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].it.idx = i
	h[j].it.idx = j
}

func (h *evictHeap) push(s slot) {
	s.it.idx = len(*h)
	*h = append(*h, s)
	h.up(len(*h) - 1)
}

func (h *evictHeap) pop() slot {
	n := len(*h) - 1
	h.swap(0, n)
	h.down(0, n)
	return h.dropLast()
}

func (h *evictHeap) remove(i int) slot {
	n := len(*h) - 1
	if n != i {
		h.swap(i, n)
		if !h.down(i, n) {
			h.up(i)
		}
	}
	return h.dropLast()
}

// dropLast shrinks the heap by its last slot and returns it.
func (h *evictHeap) dropLast() slot {
	old := *h
	n := len(old) - 1
	s := old[n]
	old[n] = slot{} // let the item be collected
	*h = old[:n]
	return s
}

func (h evictHeap) fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

func (h evictHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h evictHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

// Cache is one node's file cache. Not safe for concurrent use; the
// owning node serializes access. (internal/cachengine wraps one Cache
// behind a mutex to build its RAM tier.)
type Cache struct {
	// OnEvict, when set, observes every capacity eviction with the
	// evicted file's size and content (nil under size-only accounting).
	// Explicit Remove calls do not fire it. The callback must not call
	// back into the cache. The cachengine flash tier uses it to spill
	// evicted-but-warm objects to a second tier.
	OnEvict func(f id.File, size int64, content []byte)

	policy  Policy
	c       float64 // insertion fraction (the paper's c parameter)
	limit   int64
	used    int64
	tick    float64
	inflate float64 // GD-S aging value L
	items   map[id.File]*item
	h       evictHeap

	hits, misses int64
	evictions    int64
}

// New creates a cache with the given replacement policy and insertion
// fraction c (the paper's experiments use c=1). The limit starts at 0;
// the owning node sets it to its free space via SetLimit.
func New(policy Policy, c float64) *Cache {
	if c <= 0 {
		panic("cache: insertion fraction must be positive")
	}
	return &Cache{policy: policy, c: c, items: make(map[id.File]*item)}
}

// Used returns bytes currently cached.
func (ca *Cache) Used() int64 { return ca.used }

// Len returns the number of cached files.
func (ca *Cache) Len() int { return len(ca.items) }

// Stats returns cumulative hits, misses, and evictions.
func (ca *Cache) Stats() (hits, misses, evictions int64) {
	return ca.hits, ca.misses, ca.evictions
}

// SetLimit changes the cache capacity, evicting as needed. The owning
// PAST node calls this whenever its replica store grows or shrinks: the
// cache lives in whatever space replicas do not occupy, which is why
// cache performance degrades gracefully as utilization rises.
func (ca *Cache) SetLimit(n int64) {
	if n < 0 {
		n = 0
	}
	ca.limit = n
	ca.evictTo(ca.limit)
}

// priority computes the eviction priority of a (re)used file.
func (ca *Cache) priority(size int64, onHit bool) float64 {
	switch ca.policy {
	case GDS:
		s := size
		if s < 1 {
			s = 1
		}
		return ca.inflate + 1/float64(s) // H = L + c(d)/s(d), c(d)=1
	case LRU:
		ca.tick++
		return ca.tick
	case FIFO:
		if onHit {
			return -1 // sentinel: FIFO does not reorder on hit
		}
		ca.tick++
		return ca.tick
	default:
		return 0
	}
}

// Insert offers a file to the cache; it reports whether the file was
// cached (or refreshed, if already present). Files of at least c×limit
// bytes are not cached, per the paper's insertion policy. content may be
// nil for size-only accounting (the trace experiments), in which case
// Get returns a nil payload.
//
// Re-inserting a file that is already cached refreshes it: recency is
// touched, non-nil content replaces the cached copy, and a changed size
// updates the accounting — re-applying the insertion policy to the new
// size and evicting as needed if the cache now overflows.
func (ca *Cache) Insert(f id.File, size int64, content []byte) bool {
	if ca.policy == None || size < 0 {
		return false
	}
	if it, ok := ca.items[f]; ok {
		return ca.refresh(it, size, content)
	}
	if float64(size) >= ca.c*float64(ca.limit) {
		return false
	}
	if size > ca.limit {
		return false
	}
	ca.evictTo(ca.limit - size)
	pri := ca.priority(size, false)
	it := &item{file: f, size: size, content: content}
	ca.items[f] = it
	ca.h.push(slot{pri: pri, it: it})
	ca.used += size
	return true
}

// refresh updates an already-cached file on re-insert. Same-size offers
// only touch recency (and adopt non-nil content); a size change updates
// the byte accounting, re-applies the insertion policy, and evicts until
// the cache fits again. Reports whether the file is still cached.
func (ca *Cache) refresh(it *item, size int64, content []byte) bool {
	if size == it.size {
		if content != nil {
			it.content = content
		}
		ca.touch(it)
		return true
	}
	// The file changed size: it must satisfy the insertion policy anew.
	if float64(size) >= ca.c*float64(ca.limit) || size > ca.limit {
		ca.Remove(it.file)
		return false
	}
	ca.used += size - it.size
	it.size = size
	it.content = content
	ca.touch(it)
	// A grown file can overflow the cache; evict (possibly including the
	// refreshed file itself, if its priority is minimal) until it fits.
	ca.evictTo(ca.limit)
	_, still := ca.items[it.file]
	return still
}

// Get looks up f, returning its size and content on a hit. Recency state
// and the hit/miss counters are updated.
func (ca *Cache) Get(f id.File) (size int64, content []byte, ok bool) {
	it, found := ca.items[f]
	if !found {
		ca.misses++
		return 0, nil, false
	}
	ca.hits++
	ca.touch(it)
	return it.size, it.content, true
}

func (ca *Cache) touch(it *item) {
	p := ca.priority(it.size, true)
	if p < 0 {
		return // FIFO: no reorder on hit
	}
	ca.h[it.idx].pri = p
	ca.h.fix(it.idx)
}

// Remove drops f from the cache if present.
func (ca *Cache) Remove(f id.File) bool {
	it, ok := ca.items[f]
	if !ok {
		return false
	}
	ca.h.remove(it.idx)
	delete(ca.items, f)
	ca.used -= it.size
	return true
}

// evictTo evicts minimum-priority files until used <= target.
func (ca *Cache) evictTo(target int64) {
	if target < 0 {
		target = 0
	}
	for ca.used > target && len(ca.h) > 0 {
		s := ca.h.pop()
		it := s.it
		delete(ca.items, it.file)
		ca.used -= it.size
		ca.evictions++
		if ca.policy == GDS {
			// GreedyDual-Size aging: the evicted weight becomes the new
			// inflation value, so long-resident files decay relative to
			// fresh ones without a full-heap subtraction.
			ca.inflate = s.pri
		}
		if ca.OnEvict != nil {
			ca.OnEvict(it.file, it.size, it.content)
		}
	}
}
