package cachengine

import (
	"sync"
	"sync/atomic"

	"past/internal/id"
	"past/internal/logstore"
)

// flashTier pairs the on-disk flash segments (logstore.Flash) with the
// in-RAM object index. Objects enter by spilling out of the RAM tier's
// evictions; space is reclaimed by dropping the oldest segment whole,
// which drops every index entry still pointing into it. The index is
// rebuilt from a segment scan on open, so a crash either recovers the
// flash contents or cleanly discards the torn remainder — never serves
// bad bytes (every read re-verifies the record CRC).
type flashTier struct {
	fl       *logstore.Flash
	capacity int64

	mu      sync.RWMutex
	idx     map[id.File]logstore.Loc
	segKeys map[uint32][]id.File // keys appended per segment, for O(drop) reclaim

	spills   atomic.Int64
	segDrops atomic.Int64
}

// openFlashTier opens the directory and rebuilds the index from the
// recovered records (later duplicates win), then enforces capacity.
func openFlashTier(cfg FlashConfig) (*flashTier, error) {
	fl, recs, err := logstore.OpenFlash(cfg.Dir, cfg.segmentBytes())
	if err != nil {
		return nil, err
	}
	t := &flashTier{
		fl:       fl,
		capacity: cfg.Capacity,
		idx:      make(map[id.File]logstore.Loc, len(recs)),
		segKeys:  make(map[uint32][]id.File),
	}
	for _, r := range recs {
		t.idx[r.File] = r.Loc
		t.segKeys[r.Loc.Seg] = append(t.segKeys[r.Loc.Seg], r.File)
	}
	t.mu.Lock()
	t.enforceLocked()
	t.mu.Unlock()
	return t, nil
}

// spill appends an evicted RAM object to flash. It is the cache.Cache
// OnEvict callback, so it runs under a shard mutex — the lock order is
// always shard → tier → segment file, and the tier never calls back
// into a shard. Content-less objects (size-only accounting) cannot
// spill.
func (t *flashTier) spill(f id.File, size int64, content []byte) {
	if content == nil || int64(len(content))+64 > t.capacity {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	loc, err := t.fl.Append(f, content)
	if err != nil {
		return // a broken flash tier degrades to RAM-only, silently
	}
	t.idx[f] = loc
	t.segKeys[loc.Seg] = append(t.segKeys[loc.Seg], f)
	t.spills.Add(1)
	t.enforceLocked()
}

// enforceLocked drops oldest segments until total bytes fit the
// capacity. The active segment is never dropped. Caller holds t.mu.
func (t *flashTier) enforceLocked() {
	for t.fl.Bytes() > t.capacity {
		seg, ok := t.fl.OldestSegment()
		if !ok {
			return
		}
		for _, k := range t.segKeys[seg] {
			if loc, ok := t.idx[k]; ok && loc.Seg == seg {
				delete(t.idx, k)
			}
		}
		delete(t.segKeys, seg)
		t.fl.DropSegment(seg)
		t.segDrops.Add(1)
	}
}

// get reads f from flash, CRC-verified. A stale or unreadable location
// is dropped from the index and reported as a miss.
func (t *flashTier) get(f id.File) ([]byte, bool) {
	t.mu.RLock()
	loc, ok := t.idx[f]
	t.mu.RUnlock()
	if !ok {
		return nil, false
	}
	content, ok := t.fl.Read(f, loc)
	if !ok {
		t.mu.Lock()
		if cur, still := t.idx[f]; still && cur == loc {
			delete(t.idx, f)
		}
		t.mu.Unlock()
		return nil, false
	}
	return content, true
}

func (t *flashTier) contains(f id.File) bool {
	t.mu.RLock()
	_, ok := t.idx[f]
	t.mu.RUnlock()
	return ok
}

// remove forgets f; the record stays as dead bytes until its segment
// is dropped.
func (t *flashTier) remove(f id.File) bool {
	t.mu.Lock()
	_, ok := t.idx[f]
	if ok {
		delete(t.idx, f)
	}
	t.mu.Unlock()
	return ok
}

// usage returns (bytes across segments, live index entries).
func (t *flashTier) usage() (int64, int64) {
	t.mu.RLock()
	entries := int64(len(t.idx))
	t.mu.RUnlock()
	return t.fl.Bytes(), entries
}

func (t *flashTier) close() error { return t.fl.Close() }
