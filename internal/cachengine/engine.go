// Package cachengine is the node's tiered cache engine: the paper's
// cache (internal/cache) made safe for concurrent use and given a
// second tier.
//
// internal/cache implements the paper's replacement policies
// (GreedyDual-Size, LRU, FIFO) as single-goroutine structures. The
// engine composes one of them into a tiered cache:
//
//   - RAM tier: one policy structure (one cache.Cache) behind one
//     mutex, so the paper's insertion rule and GD-S inflation see the
//     node's whole grant. A PAST node makes every cache call under its
//     own lock, so splitting the structure would buy no concurrency.
//   - Admission: the paper's size-fraction insertion rule, applied by
//     the policy structure to the RAM tier's capacity.
//   - Flash tier: objects evicted from RAM but still warm spill into a
//     logstore.Flash, which owns the segments, their in-RAM index and
//     their reclaim, so the cached working set can exceed memory. Get
//     falls through RAM → flash → miss; flash hits promote back to RAM.
//
// With no flash tier and no RAM cap (the zero-value Config plus a
// policy), the engine is operation-for-operation identical to the
// wrapped cache.Cache — which is how the emulated experiments keep
// their fingerprints while the daemon runs the full engine.
package cachengine

import (
	"fmt"
	"sync"
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
// Policy, no RAM cap, no flash tier — bit-for-bit the behavior of a
// bare cache.Cache.
type Config struct {
	// Policy is the RAM tier's replacement policy.
	Policy cache.Policy
	// RAMBytes, when positive, caps the RAM tier regardless of the
	// limit the owner grants via SetLimit — the knob that lets a node
	// with a huge disk keep a bounded hot tier (and the experiments
	// shape working-set-vs-RAM ratios).
	RAMBytes int64
	// Flash, when non-nil, enables the flash tier.
	Flash *FlashConfig
}

func (c Config) withDefaults() Config {
	if c.Flash != nil {
		f := *c.Flash
		if f.Capacity <= 0 {
			f.Capacity = 64 << 20
		}
		c.Flash = &f
	}
	return c
}

// Engine is the concurrent cache engine. All methods are safe for
// concurrent use.
type Engine struct {
	cfg   Config
	flash *logstore.Flash

	// mu guards ram. Lock order: mu → Flash.mu → the flash fd table.
	mu  sync.Mutex
	ram cache.Cache

	flashHits atomic.Int64
	misses    atomic.Int64
}

var _ obs.CounterSource = (*Engine)(nil)

// New builds an engine. It fails only when a flash tier is configured
// and its directory cannot be opened.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg}
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
	// The insertion fraction is the paper's c = 1, applied to the RAM
	// tier's whole capacity.
	e.ram = *cache.New(cfg.Policy, 1)
	if e.flash != nil {
		e.ram.OnEvict = e.spill
	}
	return e, nil
}

// spill is the RAM tier's cache.Cache OnEvict callback: an evicted RAM
// object goes to flash. It runs under Engine.mu, and the flash tier
// never calls back into the engine.
func (e *Engine) spill(f id.File, _ int64, content []byte) { e.flash.Put(f, content) }

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Get looks up f, falling through RAM → flash → miss. A flash hit
// promotes the object back into the RAM tier. Recency state and the
// tier hit/miss counters are updated.
func (e *Engine) Get(f id.File) (size int64, content []byte, ok bool) {
	if e.cfg.Policy == cache.None {
		e.misses.Add(1)
		return 0, nil, false
	}
	e.mu.Lock()
	size, content, ok = e.ram.Get(f)
	e.mu.Unlock()
	if ok {
		return size, content, true
	}
	if e.flash != nil {
		if content, ok := e.flash.Get(f); ok {
			e.flashHits.Add(1)
			// The promotion may evict colder RAM residents, which spill
			// right back to flash.
			e.Insert(f, int64(len(content)), content)
			return int64(len(content)), content, true
		}
	}
	e.misses.Add(1)
	return 0, nil, false
}

// Insert offers a file to the cache; the RAM tier's insertion policy
// decides whether it enters.
func (e *Engine) Insert(f id.File, size int64, content []byte) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ram.Insert(f, size, content)
}

// Remove drops f from both tiers — the owner calls it when the file
// becomes a local replica, which must not be double-served from cache.
func (e *Engine) Remove(f id.File) bool {
	if e.cfg.Policy == cache.None {
		return false
	}
	e.mu.Lock()
	removed := e.ram.Remove(f)
	e.mu.Unlock()
	if e.flash != nil && e.flash.Remove(f) {
		removed = true
	}
	return removed
}

// SetLimit grants the RAM tier n bytes (clamped to RAMBytes when
// configured); the tier evicts as needed. The owning node calls this
// as replica storage grows and shrinks, exactly as it did with the
// single cache.
func (e *Engine) SetLimit(n int64) {
	if e.cfg.Policy == cache.None {
		return // a cacheless engine takes no grant
	}
	if e.cfg.RAMBytes > 0 && n > e.cfg.RAMBytes {
		n = e.cfg.RAMBytes
	}
	e.mu.Lock()
	e.ram.SetLimit(n)
	e.mu.Unlock()
}

// Used returns bytes resident in the RAM tier.
func (e *Engine) Used() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ram.Used()
}

// Len returns the number of RAM-resident files.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ram.Len()
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

// Stats aggregates the engine's counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		FlashHits: e.flashHits.Load(),
		Misses:    e.misses.Load(),
	}
	e.mu.Lock()
	// The RAM tier's own hit count is the engine's: a promotion inserts
	// and does not get.
	st.RAMHits, _, st.Evictions = e.ram.Stats()
	e.mu.Unlock()
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
	}
	if e.flash != nil {
		m[obs.CtrCacheFlashSpills] = st.FlashSpills
		m[obs.CtrCacheFlashDrops] = st.FlashSegDrops
		m[obs.CtrCacheFlashBytes] = st.FlashBytes
		m[obs.CtrCacheFlashEntries] = st.FlashEntries
	}
	return m
}
