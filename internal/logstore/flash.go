package logstore

// Flash is the cache engine's second tier: dedicated append-only
// segment files holding objects evicted from RAM but still warm, with
// their object index in RAM. It reuses the store's segment record
// format (length + CRC32C + fileId + content), but the semantics are a
// cache's, not a store's:
//
//   - nothing is ever fsynced — losing flash contents costs hit rate,
//     never durability;
//   - there is no WAL and no per-record delete: space is reclaimed by
//     dropping whole segments, oldest first, together with every index
//     entry still pointing into them (FIFO over segments, the same
//     region-reclaim discipline CacheLib's flash cache uses);
//   - the index is rebuilt on open by scanning the segments, truncating
//     any torn tail, so a restart either recovers the flash contents or
//     cleanly discards the damaged remainder — and every read
//     re-verifies the record CRC, so bad bytes are never served.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"past/internal/id"
)

// flashMagic versions the flash segment format; it differs from
// segMagic so an fsck of a store directory can never confuse the two.
const flashMagic = "PASTFLC1"

// Flash is the flash tier. Put serializes on mu and holds it across
// its append; Get reads the index under mu's read lock and preads
// outside it, under the fd table's read lock only, so reads proceed
// concurrently with appends and with each other. Lock order:
// mu → fds.
type Flash struct {
	dir       string
	capacity  int64
	segTarget int64

	mu    sync.RWMutex // guards the index, the segments and the append path
	idx   map[id.File]Loc
	buf   []byte // Put's framing scratch
	segs  map[uint32]*flashSeg
	segID uint32 // active (highest) segment id
	bytes int64  // record bytes across all segments

	fds segFiles

	spills atomic.Int64
	drops  atomic.Int64
}

type flashSeg struct {
	off   int64     // append offset (also the valid length)
	bytes int64     // record bytes in this segment
	keys  []id.File // keys appended here, for O(drop) reclaim
}

// OpenFlash opens (or creates) a flash directory holding at most
// capacity bytes of records. Segments rotate at an eighth of the
// capacity, clamped to [4 KiB, 4 MiB]: the active segment is never
// dropped, so a segment much larger than the capacity would let the
// tier hold far more than it. The scan rebuilds the index (later
// duplicates win) and then drops oldest segments down to the capacity.
// A torn or corrupt record truncates its segment at that point —
// everything before it is kept, everything after discarded. The scan
// never fails the open: a flash tier that lost everything is empty,
// not broken.
func OpenFlash(dir string, capacity int64) (*Flash, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("logstore: flash dir: %w", err)
	}
	ids, err := listNumbered(dir, "flash-", ".seg")
	if err != nil {
		return nil, err
	}
	fl := &Flash{
		dir:       dir,
		capacity:  capacity,
		segTarget: min(max(capacity/8, 4<<10), 4<<20),
		idx:       make(map[id.File]Loc),
		segs:      make(map[uint32]*flashSeg),
	}
	fl.fds.m = make(map[uint32]*os.File)
	for _, v := range ids {
		if v > 1<<32-1 {
			continue // not a segment this tier could have written
		}
		fl.recoverSegment(uint32(v))
	}
	fl.mu.Lock()
	fl.reclaimLocked()
	fl.mu.Unlock()
	return fl, nil
}

// recoverSegment scans one segment sequentially, indexing every record
// that parses and CRC-verifies, and truncates the file after the last
// one so the next append lands on a record boundary. A file that is
// unreadable or has the wrong magic is removed.
func (fl *Flash) recoverSegment(sid uint32) {
	path := flashSegPath(fl.dir, sid)
	buf, err := os.ReadFile(path)
	if err != nil || len(buf) < fileHeaderSize || string(buf[:fileHeaderSize]) != flashMagic {
		os.Remove(path)
		return
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return
	}
	seg := &flashSeg{}
	seg.off = walkSegment(sid, buf, func(file id.File, loc Loc, crcOK bool) bool {
		if !crcOK {
			return false // corrupt record: keep what came before it
		}
		fl.idx[file] = loc
		seg.keys = append(seg.keys, file)
		seg.bytes += loc.RecordSize()
		return true
	})
	if int64(len(buf)) > seg.off {
		_ = f.Truncate(seg.off)
	}
	fl.segs[sid] = seg
	fl.fds.m[sid] = f
	fl.bytes += seg.bytes
	fl.segID = max(fl.segID, sid)
}

func flashSegPath(dir string, seg uint32) string {
	return filepath.Join(dir, fmt.Sprintf("flash-%08d.seg", seg))
}

// Put appends an object to the active segment, rotating first when
// the active segment has reached its target size, and then drops
// oldest segments while the tier is over capacity. Content-less
// objects (size-only accounting) and objects that could never fit are
// skipped. A failed write is dropped silently: a broken flash tier
// degrades the cache to RAM-only.
func (fl *Flash) Put(f id.File, content []byte) {
	if content == nil || int64(len(content))+64 > fl.capacity {
		return
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	seg := fl.segs[fl.segID]
	if seg == nil || seg.off >= fl.segTarget {
		if fl.rotateLocked() != nil {
			return
		}
		seg = fl.segs[fl.segID]
	}
	fl.fds.RLock()
	fd := fl.fds.m[fl.segID]
	fl.fds.RUnlock()
	buf, crc := encodeSegRecord(fl.buf, f, content)
	fl.buf = keepSegScratch(buf)
	if _, err := fd.WriteAt(buf, seg.off); err != nil {
		return
	}
	fl.idx[f] = Loc{Seg: fl.segID, Off: seg.off, Len: uint32(len(content)), CRC: crc}
	seg.keys = append(seg.keys, f)
	seg.off += int64(len(buf))
	seg.bytes += int64(len(buf))
	fl.bytes += int64(len(buf))
	fl.spills.Add(1)
	fl.reclaimLocked()
}

// rotateLocked opens the next segment. Caller holds fl.mu.
func (fl *Flash) rotateLocked() error {
	nid := fl.segID + 1
	f, err := createLogFile(flashSegPath(fl.dir, nid), flashMagic)
	if err != nil {
		return fmt.Errorf("logstore: flash segment: %w", err)
	}
	fl.segID = nid
	fl.segs[nid] = &flashSeg{off: fileHeaderSize}
	fl.fds.put(nid, f)
	return nil
}

// reclaimLocked drops oldest segments, with the index entries still
// pointing into them, until the tier fits its capacity. The active
// segment is never dropped. Reads racing a drop miss cleanly: the fd
// table entry is gone before the file is. Caller holds fl.mu.
func (fl *Flash) reclaimLocked() {
	for fl.bytes > fl.capacity && len(fl.segs) > 1 {
		oldest := fl.segID
		for sid := range fl.segs {
			oldest = min(oldest, sid)
		}
		seg := fl.segs[oldest]
		for _, k := range seg.keys {
			if loc, ok := fl.idx[k]; ok && loc.Seg == oldest {
				delete(fl.idx, k)
			}
		}
		fl.fds.drop(oldest)
		os.Remove(flashSegPath(fl.dir, oldest))
		delete(fl.segs, oldest)
		fl.bytes -= seg.bytes
		fl.drops.Add(1)
	}
}

// Get returns f's content, CRC-verified. A failed read — the segment
// was dropped, the location is stale, or the bytes are corrupt — drops
// the location from the index and reports a miss, never bad data.
func (fl *Flash) Get(f id.File) ([]byte, bool) {
	fl.mu.RLock()
	loc, ok := fl.idx[f]
	fl.mu.RUnlock()
	if !ok {
		return nil, false
	}
	if content, _, ok := fl.fds.read(f, loc); ok {
		return content, true
	}
	fl.mu.Lock()
	if cur, still := fl.idx[f]; still && cur == loc {
		delete(fl.idx, f)
	}
	fl.mu.Unlock()
	return nil, false
}

// Remove forgets f, reporting whether it was indexed; the record stays
// as dead bytes until its segment is dropped.
func (fl *Flash) Remove(f id.File) bool {
	fl.mu.Lock()
	_, ok := fl.idx[f]
	delete(fl.idx, f)
	fl.mu.Unlock()
	return ok
}

// Usage returns the record bytes across segments and the number of
// indexed objects.
func (fl *Flash) Usage() (bytes, entries int64) {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	return fl.bytes, int64(len(fl.idx))
}

// Spills returns the number of objects Put has appended.
func (fl *Flash) Spills() int64 { return fl.spills.Load() }

// Drops returns the number of segments reclaimed to fit the capacity.
func (fl *Flash) Drops() int64 { return fl.drops.Load() }

// Close closes every segment file. Nothing is flushed: flash contents
// are expendable by design, and OpenFlash re-scans whatever the OS
// persisted.
func (fl *Flash) Close() error {
	fl.fds.closeAll()
	return nil
}
