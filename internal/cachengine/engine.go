// Package cachengine is the node's concurrent cache engine: the
// general, CacheLib-style rebuild of internal/cache for the hot path.
//
// internal/cache implements the paper's replacement policies
// (GreedyDual-Size, LRU, FIFO) as single-goroutine structures — right
// for the trace-driven Figure-8 experiments, a dead end for a node
// serving concurrent routed traffic, where every Get/Insert would
// serialize on one mutex around a heap. The engine composes those same
// policy structures into a concurrent, tiered cache:
//
//   - RAM tier: N power-of-two shards keyed by fileId bits, each an
//     independently-locked policy instance (one cache.Cache behind one
//     mutex), so concurrent operations on different fileIds never
//     contend. Per-shard GD-S keeps its own inflation clock, exactly as
//     each CacheLib pool ages independently.
//   - Admission: the paper's size-fraction insertion rule, applied
//     per shard by the underlying policy structure.
//   - Flash tier: objects evicted from RAM but still warm spill into a
//     logstore.Flash, which owns the segments, their in-RAM index and
//     their reclaim, so the cached working set can exceed memory. Get
//     falls through RAM → flash → miss; flash hits promote back to RAM.
//
// With Shards=1 and no flash tier (the zero-value Config plus a
// policy), the engine is operation-for-operation identical to the
// wrapped cache.Cache — which is how the emulated experiments keep
// their fingerprints while the daemon runs the full engine.
package cachengine

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"past/internal/cache"
	"past/internal/id"
	"past/internal/logstore"
	"past/internal/obs"
)

// FlashConfig configures the flash tier.
type FlashConfig struct {
	// Dir is the directory holding the flash segments. Required.
	Dir string
	// Capacity bounds the bytes across flash segments; the oldest
	// segment is dropped when exceeded. Default 64MB.
	Capacity int64
}

// Config parameterizes an Engine. The zero value of every field picks
// the legacy-compatible default: GD-S is selected by the owner via
// Policy, one shard, no flash tier — bit-for-bit the behavior of a
// bare cache.Cache.
type Config struct {
	// Policy is the per-shard replacement policy.
	Policy cache.Policy
	// Shards is the RAM-tier shard count, rounded up to a power of two.
	// Default 1.
	Shards int
	// RAMBytes, when positive, caps the RAM tier regardless of the
	// limit the owner grants via SetLimit — the knob that lets a node
	// with a huge disk keep a bounded hot tier (and the experiments
	// shape working-set-vs-RAM ratios).
	RAMBytes int64
	// Flash, when non-nil, enables the flash tier.
	Flash *FlashConfig
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	c.Shards = ceilPow2(c.Shards)
	if c.Flash != nil {
		f := *c.Flash
		if f.Capacity <= 0 {
			f.Capacity = 64 << 20
		}
		c.Flash = &f
	}
	return c
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Engine is the concurrent cache engine. All methods are safe for
// concurrent use.
type Engine struct {
	cfg   Config
	mask  uint32
	shard []shard
	flash *logstore.Flash

	// limit is the owner-granted capacity (before the RAMBytes clamp).
	limit atomic.Int64

	ramHits   atomic.Int64
	flashHits atomic.Int64
	misses    atomic.Int64
}

var _ obs.CounterSource = (*Engine)(nil)

// New builds an engine. It fails only when a flash tier is configured
// and its directory cannot be opened.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, mask: uint32(cfg.Shards - 1)}
	if cfg.Flash != nil && cfg.Policy != cache.None {
		if cfg.Flash.Dir == "" {
			return nil, fmt.Errorf("cachengine: flash tier needs a directory")
		}
		fl, err := logstore.OpenFlash(cfg.Flash.Dir, cfg.Flash.Capacity)
		if err != nil {
			return nil, err
		}
		e.flash = fl
	}
	// Shards are held by value: a call reaches its policy's map through
	// one slice index.
	e.shard = make([]shard, cfg.Shards)
	for i := range e.shard {
		s := &e.shard[i]
		// The insertion fraction is the paper's c = 1, applied by each
		// shard to its own capacity.
		s.c = *cache.New(cfg.Policy, 1)
		if e.flash != nil {
			s.c.OnEvict = e.spill
		}
	}
	return e, nil
}

// spill is the shards' cache.Cache OnEvict callback: an evicted RAM
// object goes to flash. It runs under the shard's mutex, so the lock
// order is shard → flash index → segment fd table, and the flash tier
// never calls back into a shard.
func (e *Engine) spill(f id.File, _ int64, content []byte) { e.flash.Put(f, content) }

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// shardOf selects the shard by fileId bits. FileIds are hashes, so the
// low word is uniform.
func (e *Engine) shardOf(f id.File) *shard {
	return &e.shard[binary.LittleEndian.Uint32(f[0:4])&e.mask]
}

// Get looks up f, falling through RAM → flash → miss. A flash hit
// promotes the object back into the RAM tier. Recency state and the
// tier hit/miss counters are updated.
func (e *Engine) Get(f id.File) (size int64, content []byte, ok bool) {
	if e.cfg.Policy == cache.None {
		e.misses.Add(1)
		return 0, nil, false
	}
	sh := e.shardOf(f)
	if size, content, ok := sh.get(f); ok {
		e.ramHits.Add(1)
		return size, content, true
	}
	if e.flash != nil {
		if content, ok := e.flash.Get(f); ok {
			e.flashHits.Add(1)
			// The promotion may evict colder RAM residents, which spill
			// right back to flash.
			sh.insert(f, int64(len(content)), content)
			return int64(len(content)), content, true
		}
	}
	e.misses.Add(1)
	return 0, nil, false
}

// Insert offers a file to the cache; the per-shard insertion policy
// decides whether it enters.
func (e *Engine) Insert(f id.File, size int64, content []byte) bool {
	return e.shardOf(f).insert(f, size, content)
}

// Remove drops f from both tiers — the owner calls it when the file
// becomes a local replica, which must not be double-served from cache.
func (e *Engine) Remove(f id.File) bool {
	if e.cfg.Policy == cache.None {
		return false
	}
	removed := e.shardOf(f).remove(f)
	if e.flash != nil && e.flash.Remove(f) {
		removed = true
	}
	return removed
}

// SetLimit grants the RAM tier n bytes (clamped to RAMBytes when
// configured), distributed evenly across shards; shards evict as
// needed. The owning node calls this as replica storage grows and
// shrinks, exactly as it did with the single cache.
func (e *Engine) SetLimit(n int64) {
	if e.cfg.Policy == cache.None {
		return // a cacheless engine takes no grant
	}
	n = max(n, 0)
	e.limit.Store(n)
	if e.cfg.RAMBytes > 0 && n > e.cfg.RAMBytes {
		n = e.cfg.RAMBytes
	}
	nsh := int64(len(e.shard))
	base, rem := n/nsh, n%nsh
	for i := range e.shard {
		share := base
		if int64(i) < rem {
			share++
		}
		e.shard[i].setLimit(share)
	}
}

// Limit returns the owner-granted RAM limit (before the RAMBytes
// clamp), matching the legacy cache's accounting that the node's
// status surfaces.
func (e *Engine) Limit() int64 { return e.limit.Load() }

// Used returns bytes resident in the RAM tier.
func (e *Engine) Used() int64 {
	var n int64
	for i := range e.shard {
		n += e.shard[i].used()
	}
	return n
}

// Len returns the number of RAM-resident files.
func (e *Engine) Len() int {
	var n int
	for i := range e.shard {
		n += e.shard[i].len()
	}
	return n
}

// Close releases the flash tier's files. The RAM tier needs no
// teardown.
func (e *Engine) Close() error {
	if e.flash != nil {
		return e.flash.Close()
	}
	return nil
}

// Stats is a point-in-time aggregate of the engine's counters.
type Stats struct {
	RAMHits, FlashHits, Misses int64
	Evictions                  int64

	FlashSpills, FlashSegDrops int64
	FlashBytes, FlashEntries   int64
}

// Hits returns total hits across tiers.
func (s Stats) Hits() int64 { return s.RAMHits + s.FlashHits }

// HitRate returns hits / (hits + misses), or 0 before any traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits() + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(total)
}

// Stats aggregates the engine's counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		RAMHits:   e.ramHits.Load(),
		FlashHits: e.flashHits.Load(),
		Misses:    e.misses.Load(),
	}
	for i := range e.shard {
		st.Evictions += e.shard[i].evictions()
	}
	if e.flash != nil {
		st.FlashSpills = e.flash.Spills()
		st.FlashSegDrops = e.flash.Drops()
		st.FlashBytes, st.FlashEntries = e.flash.Usage()
	}
	return st
}

// ObsCounters implements obs.CounterSource: the engine's tier counters
// under cachengine_* names. The owning node separately maintains the
// legacy cache_hits/misses/evictions series from Stats, so existing
// dashboards keep working.
func (e *Engine) ObsCounters() map[string]int64 {
	st := e.Stats()
	m := map[string]int64{
		obs.CtrCacheRAMHits:   st.RAMHits,
		obs.CtrCacheFlashHits: st.FlashHits,
		obs.CtrCacheShards:    int64(len(e.shard)),
	}
	if e.flash != nil {
		m[obs.CtrCacheFlashSpills] = st.FlashSpills
		m[obs.CtrCacheFlashDrops] = st.FlashSegDrops
		m[obs.CtrCacheFlashBytes] = st.FlashBytes
		m[obs.CtrCacheFlashEntries] = st.FlashEntries
	}
	return m
}
