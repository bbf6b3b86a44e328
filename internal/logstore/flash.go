package logstore

// Flash is the cache engine's second tier: dedicated append-only
// segment files holding objects evicted from RAM but still warm. It
// reuses the store's segment record format (length + CRC32C + fileId +
// content), but the semantics are a cache's, not a store's:
//
//   - nothing is ever fsynced — losing flash contents costs hit rate,
//     never durability;
//   - there is no WAL and no per-record delete: space is reclaimed by
//     dropping whole segments, oldest first (FIFO over segments, the
//     same region-reclaim discipline CacheLib's flash cache uses);
//   - the object index lives in RAM, owned by the caller
//     (internal/cachengine); on open, OpenFlash rebuilds the record
//     list by scanning the segments, truncating any torn tail, so a
//     restart either recovers the flash contents or cleanly discards
//     the damaged remainder.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"past/internal/id"
)

// flashMagic versions the flash segment format; it differs from
// segMagic so an fsck of a store directory can never confuse the two.
const flashMagic = "PASTFLC1"

// FlashRecord is one recovered record, reported by OpenFlash in
// (segment, offset) order so later duplicates win when the caller
// rebuilds its index.
type FlashRecord struct {
	File id.File
	Loc  Loc
}

// Flash is the on-disk half of the flash tier. Append serializes on an
// internal mutex; Read takes only a read-lock on the fd table plus a
// pread, so reads proceed concurrently with appends and with each
// other.
type Flash struct {
	dir       string
	segTarget int64

	mu    sync.Mutex // guards the append path and segment lifecycle
	buf   []byte     // Append's framing scratch
	segs  map[uint32]*flashSeg
	segID uint32 // active (highest) segment id
	bytes int64  // record bytes across all segments

	fds struct {
		sync.RWMutex
		m map[uint32]*os.File
	}
}

type flashSeg struct {
	off   int64 // append offset (also the valid length)
	bytes int64 // record bytes in this segment
}

// OpenFlash opens (or creates) a flash directory and scans its
// segments, returning the surviving records. A torn or corrupt record
// truncates its segment at that point — everything before it is kept,
// everything after discarded. The scan never fails the open: a flash
// tier that lost everything is empty, not broken.
func OpenFlash(dir string, segTarget int64) (*Flash, []FlashRecord, error) {
	if segTarget <= 0 {
		segTarget = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("logstore: flash dir: %w", err)
	}
	fl := &Flash{dir: dir, segTarget: segTarget, segs: make(map[uint32]*flashSeg)}
	fl.fds.m = make(map[uint32]*os.File)

	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("logstore: flash dir: %w", err)
	}
	var ids []uint32
	for _, de := range names {
		n := de.Name()
		if !strings.HasPrefix(n, "flash-") || !strings.HasSuffix(n, ".seg") {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(n, "flash-"), ".seg"), 10, 32)
		if err != nil {
			continue
		}
		ids = append(ids, uint32(v))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var recs []FlashRecord
	for _, sid := range ids {
		segRecs, valid, ok := scanFlashSegment(flashSegPath(dir, sid))
		if !ok {
			// Unreadable or wrong magic: discard the whole file.
			os.Remove(flashSegPath(dir, sid))
			continue
		}
		f, err := os.OpenFile(flashSegPath(dir, sid), os.O_RDWR, 0o644)
		if err != nil {
			continue
		}
		// Truncate a torn tail so the next append lands on a record
		// boundary.
		if fi, err := f.Stat(); err == nil && fi.Size() > valid {
			_ = f.Truncate(valid)
		}
		var segBytes int64
		for _, r := range segRecs {
			segBytes += r.Loc.RecordSize()
		}
		fl.segs[sid] = &flashSeg{off: valid, bytes: segBytes}
		fl.fds.m[sid] = f
		fl.bytes += segBytes
		if sid > fl.segID {
			fl.segID = sid
		}
		recs = append(recs, segRecs...)
	}
	return fl, recs, nil
}

// scanFlashSegment reads one segment sequentially, parsing and
// CRC-verifying every record. It returns the valid records, the byte
// offset up to which the file is well-formed, and whether the file was
// a flash segment at all.
func scanFlashSegment(path string) (recs []FlashRecord, valid int64, ok bool) {
	buf, err := os.ReadFile(path)
	if err != nil || len(buf) < fileHeaderSize || string(buf[:fileHeaderSize]) != flashMagic {
		return nil, 0, false
	}
	sid := flashSegIDFromPath(path)
	off := int64(fileHeaderSize)
	for off < int64(len(buf)) {
		rest := buf[off:]
		clen, crc, f, content, err := parseSegRecord(rest)
		if err != nil || int64(clen) > maxRecordLen || crc32Checksum(content) != crc {
			break // torn or corrupt tail: keep what parsed so far
		}
		recs = append(recs, FlashRecord{
			File: f,
			Loc:  Loc{Seg: sid, Off: off, Len: clen, CRC: crc},
		})
		off += segRecHeaderSize + int64(clen)
	}
	return recs, off, true
}

func flashSegPath(dir string, seg uint32) string {
	return filepath.Join(dir, fmt.Sprintf("flash-%08d.seg", seg))
}

func flashSegIDFromPath(path string) uint32 {
	n := filepath.Base(path)
	v, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(n, "flash-"), ".seg"), 10, 32)
	return uint32(v)
}

// Append writes one record to the active segment, rotating first when
// the active segment has reached its target size.
func (fl *Flash) Append(f id.File, content []byte) (Loc, error) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	seg := fl.segs[fl.segID]
	if seg == nil || seg.off >= fl.segTarget {
		if err := fl.rotateLocked(); err != nil {
			return Loc{}, err
		}
		seg = fl.segs[fl.segID]
	}
	fl.fds.RLock()
	fd := fl.fds.m[fl.segID]
	fl.fds.RUnlock()
	buf, crc := encodeSegRecord(fl.buf, f, content)
	fl.buf = keepSegScratch(buf)
	if _, err := fd.WriteAt(buf, seg.off); err != nil {
		return Loc{}, fmt.Errorf("logstore: flash append: %w", err)
	}
	loc := Loc{Seg: fl.segID, Off: seg.off, Len: uint32(len(content)), CRC: crc}
	seg.off += int64(len(buf))
	seg.bytes += int64(len(buf))
	fl.bytes += int64(len(buf))
	return loc, nil
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
	fl.fds.Lock()
	fl.fds.m[nid] = f
	fl.fds.Unlock()
	return nil
}

// Read returns the content at loc, CRC-verified. A failed read — the
// segment was dropped, the location is stale, or the bytes are corrupt
// — reports a miss, never bad data.
func (fl *Flash) Read(f id.File, loc Loc) ([]byte, bool) {
	fl.fds.RLock()
	fd := fl.fds.m[loc.Seg]
	if fd == nil {
		fl.fds.RUnlock()
		return nil, false
	}
	buf := make([]byte, loc.RecordSize())
	_, err := fd.ReadAt(buf, loc.Off)
	fl.fds.RUnlock()
	if err != nil {
		return nil, false
	}
	clen, crc, rf, content, perr := parseSegRecord(buf)
	if perr != nil || rf != f || clen != loc.Len || crc != loc.CRC || crc32Checksum(content) != crc {
		return nil, false
	}
	return content, true
}

// Bytes returns the record bytes across all segments.
func (fl *Flash) Bytes() int64 {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.bytes
}

// Segments returns the number of live segments.
func (fl *Flash) Segments() int {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return len(fl.segs)
}

// OldestSegment returns the lowest live segment id. It reports false
// when at most one segment exists — the active segment is never
// reclaimed out from under the appender.
func (fl *Flash) OldestSegment() (uint32, bool) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if len(fl.segs) < 2 {
		return 0, false
	}
	oldest := fl.segID
	for sid := range fl.segs {
		if sid < oldest {
			oldest = sid
		}
	}
	return oldest, true
}

// DropSegment closes and unlinks a segment, returning the record bytes
// it held. Reads racing the drop miss cleanly (the fd table entry is
// gone before the file is). Dropping the active segment is refused.
func (fl *Flash) DropSegment(seg uint32) int64 {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	s := fl.segs[seg]
	if s == nil || seg == fl.segID {
		return 0
	}
	fl.fds.Lock()
	if fd := fl.fds.m[seg]; fd != nil {
		fd.Close()
		delete(fl.fds.m, seg)
	}
	fl.fds.Unlock()
	os.Remove(flashSegPath(fl.dir, seg))
	delete(fl.segs, seg)
	fl.bytes -= s.bytes
	return s.bytes
}

// Close closes every segment file. Nothing is flushed: flash contents
// are expendable by design, and OpenFlash re-scans whatever the OS
// persisted.
func (fl *Flash) Close() error {
	fl.fds.Lock()
	for _, f := range fl.fds.m {
		f.Close()
	}
	fl.fds.m = make(map[uint32]*os.File)
	fl.fds.Unlock()
	return nil
}
