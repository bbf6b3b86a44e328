package logstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"past/internal/id"
	"past/internal/store"
)

// newStore allocates a Store with an empty index and no files open.
func newStore(dir string, opts Options) *Store {
	s := &Store{dir: dir, opts: opts, stop: make(chan struct{})}
	s.idx.entries = make(map[id.File]*entryRec)
	s.idx.pointers = make(map[id.File]store.Pointer)
	s.segFDs.m = make(map[uint32]*os.File)
	s.log.segLive = make(map[uint32]int64)
	s.log.segTotal = make(map[uint32]int64)
	s.commit.cond = sync.NewCond(&s.commit.Mutex)
	return s
}

// Open opens (or creates) a log store at dir: load the last checkpoint,
// replay the WAL over it, truncate torn tails, rebuild the segment
// accounting, and resume appending. A node restarted on its directory
// comes back with exactly the metadata and content that were durable at
// the crash.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Capacity < 0 {
		return nil, fmt.Errorf("logstore: negative capacity")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("logstore: open %s: %w", dir, err)
	}
	s := newStore(dir, opts)

	start := time.Now()
	if err := s.recover(); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.stats.RecoveryNanos.Store(time.Since(start).Nanoseconds())

	s.bg.Add(1)
	go s.background()
	return s, nil
}

// refuseOldFormat reports a directory written by a build whose formats
// this one has no reader for, so it is never mistaken for an empty one.
func refuseOldFormat(dir string) error {
	for _, old := range []struct{ name, what string }{
		{"checkpoint.gob", "a gob checkpoint (PASTWAL1-era logstore)"},
		{"meta.gob", "a DiskStore metadata snapshot"},
		{"objects", "a DiskStore object tree"},
	} {
		if _, err := os.Stat(filepath.Join(dir, old.name)); err == nil {
			return fmt.Errorf("logstore: %s holds %s (%s), a format this build cannot read: start from an empty directory", dir, old.what, old.name)
		}
	}
	return nil
}

// recover rebuilds the in-memory state from disk. Runs single-threaded
// before the store is visible, so it mutates the index without locks.
func (s *Store) recover() error {
	if err := refuseOldFormat(s.dir); err != nil {
		return err
	}
	firstSeq, _, err := loadCheckpoint(s.dir, s.applyRecord)
	if err != nil {
		return err
	}

	seqs, err := listNumbered(s.dir, "wal-", ".log")
	if err != nil {
		return err
	}
	for len(seqs) > 0 && seqs[0] < firstSeq {
		// Superseded by the checkpoint; a crash interrupted cleanup.
		os.Remove(walPath(s.dir, seqs[0]))
		seqs = seqs[1:]
	}

	lastOff := int64(fileHeaderSize)
	lastSeq := firstSeq
	if len(seqs) == 0 {
		wal, err := createLogFile(walPath(s.dir, firstSeq), walMagic)
		if err != nil {
			return fmt.Errorf("logstore: create WAL: %w", err)
		}
		syncDir(s.dir) // dir entry durable before records are acknowledged
		s.log.wal = wal
	} else {
		for i, seq := range seqs {
			lastSeq = seq
			if lastOff, err = s.replayWALFile(walPath(s.dir, seq), i == len(seqs)-1); err != nil {
				return err
			}
		}
		wal, err := os.OpenFile(walPath(s.dir, lastSeq), os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("logstore: reopen WAL: %w", err)
		}
		s.log.wal = wal
	}
	s.log.walSeq = lastSeq
	s.log.walOff = lastOff
	s.log.walSince = lastOff - fileHeaderSize

	return s.recoverSegments()
}

// applyRecord folds one checkpoint or WAL record into the index, and
// the accounting with it.
func (s *Store) applyRecord(r walRecord) {
	switch r.typ {
	case recAdd:
		// Replaces any previous version, so replay is idempotent.
		if old, ok := s.idx.entries[r.file]; ok {
			s.used.Add(-old.meta.Size)
			s.count.Add(-1)
		}
		s.idx.entries[r.file] = &entryRec{meta: r.entry, hasContent: r.hasContent, loc: r.loc}
		s.used.Add(r.entry.Size)
		s.count.Add(1)
	case recRemove:
		if old, ok := s.idx.entries[r.file]; ok {
			delete(s.idx.entries, r.file)
			s.used.Add(-old.meta.Size)
			s.count.Add(-1)
		}
	case recSetPointer:
		s.idx.pointers[r.file] = r.ptr
	case recRemovePointer:
		delete(s.idx.pointers, r.file)
	case recRelocate:
		if e, ok := s.idx.entries[r.file]; ok && e.hasContent {
			e.loc = r.loc
		}
	}
}

// replayWALFile replays one WAL file into the index and returns its
// valid length. On the last file a torn tail — short header, short
// payload, impossible length, or CRC mismatch — is truncated away;
// anywhere else it is corruption and recovery fails.
func (s *Store) replayWALFile(path string, isLast bool) (validLen int64, err error) {
	w, err := readWALFile(path, s.applyRecord)
	s.stats.RecoveredRecords.Add(int64(w.records))
	if err != nil {
		return 0, err
	}
	if !w.torn() {
		return w.validLen, nil
	}
	if !isLast {
		return 0, fmt.Errorf("logstore: %s: invalid record at offset %d in non-final WAL", path, w.validLen)
	}
	if w.validLen < fileHeaderSize {
		// The file creation itself was torn; reset it.
		f, cerr := createLogFile(path, walMagic)
		if cerr != nil {
			return 0, fmt.Errorf("logstore: reset torn WAL: %w", cerr)
		}
		f.Close()
		w.validLen = fileHeaderSize
	} else if terr := os.Truncate(path, w.validLen); terr != nil {
		return 0, fmt.Errorf("logstore: truncate torn WAL tail: %w", terr)
	}
	s.stats.TornTruncations.Add(1)
	return w.validLen, nil
}

// walScan is what reading one WAL file found.
type walScan struct {
	records  int
	validLen int64 // length of the prefix that parsed; 0 when the magic is missing or wrong
	size     int64 // length of the file
}

// torn reports whether the file ends in bytes that are not a valid
// record: a torn tail if it is the last WAL file, corruption otherwise.
func (w walScan) torn() bool { return w.validLen < fileHeaderSize || w.validLen < w.size }

// readWALFile reads one WAL file and feeds its records to apply,
// without modifying the file; the caller knows whether a torn result
// is tolerable. A record that passes its CRC and still does not decode
// is an error on any file.
func readWALFile(path string, apply func(walRecord)) (walScan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return walScan{}, fmt.Errorf("logstore: read WAL: %w", err)
	}
	w := walScan{size: int64(len(data))}
	if bytes.HasPrefix(data, []byte("PASTWAL1")) {
		return w, fmt.Errorf("logstore: %s is a PASTWAL1 log, a format this build cannot read (it writes %s): start from an empty directory", path, walMagic)
	}
	if !bytes.HasPrefix(data, []byte(walMagic)) {
		return w, nil
	}
	w.records, w.validLen, err = scanRecords(data, func(r walRecord) error {
		if r.typ == recCheckpoint {
			return fmt.Errorf("logstore: checkpoint header record in a WAL")
		}
		apply(r)
		return nil
	})
	if err != nil {
		err = fmt.Errorf("logstore: %s: %w", path, err)
	}
	return w, err
}

// scanRecords parses the framed records that follow the 8-byte magic in
// data, handing each to apply, and returns how many it applied and the
// offset of the first byte that does not begin a valid record
// (len(data) when every byte is accounted for).
func scanRecords(data []byte, apply func(walRecord) error) (records int, off int64, err error) {
	off = fileHeaderSize
	for {
		rec, n, ok, err := nextWALRecord(data, off)
		if err == nil && ok {
			err = apply(rec)
		}
		if err != nil {
			return records, off, fmt.Errorf("offset %d: %w", off, err)
		}
		if !ok {
			return records, off, nil
		}
		records++
		off += n
	}
}

// nextWALRecord parses the record at off. ok=false means the bytes at
// off do not form a complete valid record (torn tail or corruption —
// the caller decides which). A decode failure on a CRC-valid payload is
// a hard error.
func nextWALRecord(data []byte, off int64) (rec walRecord, n int64, ok bool, err error) {
	rest := data[off:]
	if len(rest) < recHeaderSize {
		return rec, 0, false, nil
	}
	plen := binary.LittleEndian.Uint32(rest[0:])
	crc := binary.LittleEndian.Uint32(rest[4:])
	if plen > maxRecordLen || int64(len(rest)-recHeaderSize) < int64(plen) {
		return rec, 0, false, nil
	}
	payload := rest[recHeaderSize : recHeaderSize+int(plen)]
	if crc32Checksum(payload) != crc {
		return rec, 0, false, nil
	}
	rec, derr := decodeWALPayload(payload)
	if derr != nil {
		return rec, 0, false, derr
	}
	return rec, recHeaderSize + int64(plen), true, nil
}

// recoverSegments opens every segment file, rebuilds the live/total
// accounting from the recovered index, and trims the active segment:
// bytes past the last live record are either dead or torn, and the
// write point must never overlap a referenced offset.
func (s *Store) recoverSegments() error {
	ids, err := listNumbered(s.dir, "seg-", ".seg")
	if err != nil {
		return err
	}
	sizes := make(map[uint32]int64, len(ids))
	for _, sid64 := range ids {
		sid := uint32(sid64)
		f, err := os.OpenFile(segPath(s.dir, sid), os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("logstore: open segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("logstore: stat segment: %w", err)
		}
		s.segFDs.m[sid] = f
		size := st.Size()
		if size < fileHeaderSize {
			size = fileHeaderSize // torn creation; no records can be valid
		}
		sizes[sid] = size
		s.log.segTotal[sid] = size - fileHeaderSize
	}

	// Live bytes and high-water marks from the index.
	maxEnd := make(map[uint32]int64)
	for _, r := range s.idx.entries {
		if !r.hasContent {
			continue
		}
		s.log.segLive[r.loc.Seg] += r.loc.RecordSize()
		if end := r.loc.Off + r.loc.RecordSize(); end > maxEnd[r.loc.Seg] {
			maxEnd[r.loc.Seg] = end
		}
	}

	if len(ids) == 0 {
		return nil // first segment is created on the first content append
	}
	active := uint32(ids[len(ids)-1])
	s.log.seg = s.segFDs.m[active]
	s.log.segID = active
	end := maxEnd[active]
	if end < fileHeaderSize {
		end = fileHeaderSize
	}
	switch size := sizes[active]; {
	case size > end:
		// Tail bytes past the last live record: dead records or a torn
		// append whose WAL record did not survive. Either way they are
		// unreferenced — reclaim them so new appends cannot collide.
		if err := s.log.seg.Truncate(end); err != nil {
			return fmt.Errorf("logstore: trim active segment: %w", err)
		}
		s.stats.TornTruncations.Add(1)
		s.log.segTotal[active] = end - fileHeaderSize
		s.log.segOff = end
	case size < end:
		// Referenced content is missing (the segment fsync lost the
		// race with the crash). The affected reads fail their CRC and
		// return metadata only; seal the segment so the lost range is
		// never overwritten with new records.
		s.stats.TornTruncations.Add(1)
		s.log.segOff = s.opts.SegmentTarget // forces rotation on next append
	default:
		s.log.segOff = size
	}
	return nil
}

// listNumbered returns the sorted numeric suffixes of dir entries named
// <prefix><number><suffix>.
func listNumbered(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("logstore: list %s: %w", dir, err)
	}
	var out []uint64
	for _, de := range entries {
		name := de.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		n, err := strconv.ParseUint(mid, 10, 64)
		if err != nil {
			continue // not ours
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
