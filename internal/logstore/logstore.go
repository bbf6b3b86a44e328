package logstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"past/internal/id"
	"past/internal/obs"
	"past/internal/store"
)

// SyncPolicy selects when WAL and segment appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways makes every mutation durable before it returns, with
	// group commit: concurrent committers share one fsync batch.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs every syncEvery; a crash loses at most the
	// last interval.
	SyncInterval
	// SyncNever leaves flushing to the OS (still fsynced at checkpoint
	// and clean Close).
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses "always", "interval", or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("logstore: unknown sync policy %q (want always, interval, or never)", s)
	}
}

// Options configures a Store. The zero value of every field selects a
// sensible default; negative CheckpointBytes or CompactRatio disable
// the feature.
type Options struct {
	// Capacity is the advertised capacity in bytes. Required.
	Capacity int64
	// Sync is the durability policy (default SyncAlways).
	Sync SyncPolicy
	// SegmentTarget seals the active segment once it exceeds this many
	// bytes (default 64MB).
	SegmentTarget int64
	// CheckpointBytes triggers a background checkpoint once that many
	// WAL bytes accumulate since the last one (default 4MB; negative
	// disables automatic checkpoints).
	CheckpointBytes int64
	// CompactRatio marks a sealed segment for compaction when its
	// live-bytes fraction falls below it (default 0.5; negative disables).
	CompactRatio float64
	// CompactEvery runs a background compaction scan on this period;
	// zero (the default) leaves compaction to explicit CompactOnce calls.
	CompactEvery time.Duration
}

// syncEvery is the SyncInterval flush period.
const syncEvery = 100 * time.Millisecond

func (o Options) withDefaults() Options {
	if o.SegmentTarget == 0 {
		o.SegmentTarget = 64 << 20
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 4 << 20
	}
	if o.CompactRatio == 0 {
		o.CompactRatio = 0.5
	}
	return o
}

// entryRec is one live replica in the index: its metadata plus, when
// content was stored, the segment location.
type entryRec struct {
	meta       store.Entry // Content always nil
	hasContent bool
	loc        Loc
}

// Store is the log-structured storage engine. It implements
// store.Backend and, unlike the in-memory Store, is safe for
// concurrent use: reads take only the index read-lock and a segment
// pread; mutations serialize on the log mutex but fsync outside it, so
// a slow group commit never blocks readers.
type Store struct {
	dir   string
	opts  Options
	stats Stats

	used  atomic.Int64
	count atomic.Int64

	// idx is the index. Writers hold s.log as well as idx's write lock,
	// so code that holds s.log may read the maps without idx's lock.
	idx struct {
		sync.RWMutex
		entries  map[id.File]*entryRec
		pointers map[id.File]store.Pointer
	}

	// log guards all mutations: WAL/segment appends, index writes, and
	// the accounting checks that must be atomic with them.
	log struct {
		sync.Mutex
		failed   error // sticky write-path failure; all mutations refuse
		wal      *os.File
		walBuf   []byte // appendWALLocked's encoding scratch
		segBuf   []byte // appendSegmentLocked's framing scratch
		walSeq   uint64
		walOff   int64
		walSince int64 // WAL bytes since the last checkpoint
		seg      *os.File
		segID    uint32
		segOff   int64
		segLive  map[uint32]int64 // live record bytes per segment
		segTotal map[uint32]int64 // total record bytes per segment
	}

	// lsn counts appended WAL records; the group committer compares it
	// against the synced watermark.
	lsn atomic.Uint64

	// segFDs holds the open segment files; compaction closes one only
	// under its write lock.
	segFDs segFiles

	// commit is the group-commit state: the first committer past the
	// synced watermark becomes the leader and fsyncs for everyone queued
	// behind it.
	commit struct {
		sync.Mutex
		cond    *sync.Cond
		synced  uint64
		syncing bool
		err     error
	}

	// syncMu serializes fsync batches against WAL rotation, so a leader
	// never fsyncs a file the checkpoint just closed.
	syncMu sync.Mutex

	// ckptMu serializes checkpoint bodies: the exported Checkpoint
	// path, automatic checkpoints, and the final one from Close. Two
	// interleaved checkpoints could otherwise race the snapshot rename
	// — the lower-WALSeq snapshot winning after the higher one already
	// deleted the WAL files below its seq, silently losing records on
	// the next recovery.
	ckptMu      sync.Mutex
	ckptRunning atomic.Bool
	closed      atomic.Bool
	stop        chan struct{}
	// bgMu makes the closed-check + bg.Add in kickCheckpoint atomic
	// against Close/Kill's closed-store + bg.Wait (a bare Add racing
	// Wait is WaitGroup misuse).
	bgMu sync.Mutex
	bg   sync.WaitGroup
}

var (
	_ store.Backend     = (*Store)(nil)
	_ obs.CounterSource = (*Store)(nil)
)

// errClosed is returned by mutations on a closed store.
var errClosed = fmt.Errorf("logstore: store is closed")

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the engine's live counters.
func (s *Store) Stats() *Stats { return &s.stats }

// ObsCounters implements obs.CounterSource: the engine counters plus
// the live segment-count gauge.
func (s *Store) ObsCounters() map[string]int64 {
	m := s.stats.Counters()
	s.segFDs.RLock()
	m[obs.CtrSegments] = int64(len(s.segFDs.m))
	s.segFDs.RUnlock()
	return m
}

// Accounting. Reads are atomic loads; the writes happen under the log
// mutex, atomically with the WAL append that justifies them.

func (s *Store) Capacity() int64 { return s.opts.Capacity }
func (s *Store) Used() int64     { return s.used.Load() }
func (s *Store) Free() int64     { return s.opts.Capacity - s.used.Load() }
func (s *Store) Len() int        { return int(s.count.Load()) }

// Utilization returns Used/Capacity in [0, 1].
func (s *Store) Utilization() float64 {
	if s.opts.Capacity == 0 {
		return 0
	}
	return float64(s.used.Load()) / float64(s.opts.Capacity)
}

// CanAccept applies the SD/FN acceptance policy to this store's free
// space.
func (s *Store) CanAccept(size int64, t float64) bool { return store.Accepts(size, s.Free(), t) }

// Add stores a replica: content appended to the active segment, one
// WAL record, index insert, then (under SyncAlways) a group commit.
// If the commit fsync fails the error is returned but the entry may
// remain visible (see waitDurable); the store then refuses all
// further mutations.
func (s *Store) Add(e store.Entry) error {
	if s.closed.Load() {
		return errClosed
	}
	content := e.Content
	e.Content = nil

	s.log.Lock()
	if err := s.log.failed; err != nil {
		s.log.Unlock()
		return err
	}
	if _, dup := s.idx.entries[e.File]; dup {
		s.log.Unlock()
		return fmt.Errorf("logstore: %s already held", e.File.Short())
	}
	if e.Size < 0 {
		s.log.Unlock()
		return fmt.Errorf("logstore: negative size %d", e.Size)
	}
	if free := s.opts.Capacity - s.used.Load(); e.Size > free {
		s.log.Unlock()
		return fmt.Errorf("logstore: %s needs %d bytes, only %d free", e.File.Short(), e.Size, free)
	}

	rec := walRecord{typ: recAdd, file: e.File, entry: e}
	if content != nil {
		loc, err := s.appendSegmentLocked(e.File, content)
		if err != nil {
			s.log.Unlock()
			return err
		}
		rec.hasContent = true
		rec.loc = loc
	}
	lsn, err := s.appendWALLocked(rec)
	if err != nil {
		s.log.Unlock()
		return err
	}

	s.idx.Lock()
	s.idx.entries[e.File] = &entryRec{meta: e, hasContent: rec.hasContent, loc: rec.loc}
	s.idx.Unlock()
	s.used.Add(e.Size)
	s.count.Add(1)
	if rec.hasContent {
		s.log.segLive[rec.loc.Seg] += rec.loc.RecordSize()
	}
	ckpt := s.checkpointDueLocked()
	s.log.Unlock()

	if ckpt {
		s.kickCheckpoint()
	}
	return s.waitDurable(lsn)
}

// Get returns the entry, reading and CRC-verifying content from its
// segment. Content that fails verification is withheld (the entry is
// still returned), so a torn write can never surface corrupt bytes.
func (s *Store) Get(f id.File) (store.Entry, bool) {
	s.idx.RLock()
	r, ok := s.idx.entries[f]
	if !ok {
		s.idx.RUnlock()
		return store.Entry{}, false
	}
	e := r.meta
	hasContent, loc := r.hasContent, r.loc
	s.idx.RUnlock()

	if !hasContent {
		return e, true
	}
	// A read that raced a compaction finds the record's segment gone;
	// the re-fetched location then points where the record moved. Once
	// the location stays put, the content is lost or corrupt.
	for {
		if content, ok := s.readContent(f, loc); ok {
			e.Content = content
			return e, true
		}
		s.idx.RLock()
		r, stillThere := s.idx.entries[f]
		if !stillThere {
			s.idx.RUnlock()
			return store.Entry{}, false
		}
		moved := r.loc != loc
		loc = r.loc
		s.idx.RUnlock()
		if !moved {
			return e, true // metadata survives
		}
	}
}

// Stat returns the replica entry for f without its content: an index
// lookup, no segment read.
func (s *Store) Stat(f id.File) (store.Entry, bool) {
	s.idx.RLock()
	defer s.idx.RUnlock()
	if r, ok := s.idx.entries[f]; ok {
		return r.meta, true
	}
	return store.Entry{}, false
}

// readContent reads one content record; a record that is there but
// fails its read or its checks is a checksum failure, a segment that is
// gone (compacted away) is not.
func (s *Store) readContent(f id.File, loc Loc) ([]byte, bool) {
	content, open, ok := s.segFDs.read(f, loc)
	if open && !ok {
		s.stats.ChecksumFailures.Add(1)
	}
	return content, ok
}

// Remove discards the replica of f. The content record stays in its
// segment as dead bytes until compaction reclaims it.
func (s *Store) Remove(f id.File) (store.Entry, bool) {
	if s.closed.Load() {
		return store.Entry{}, false
	}
	s.log.Lock()
	if s.log.failed != nil {
		s.log.Unlock()
		return store.Entry{}, false
	}
	r, ok := s.idx.entries[f]
	if !ok {
		s.log.Unlock()
		return store.Entry{}, false
	}
	lsn, err := s.appendWALLocked(walRecord{typ: recRemove, file: f})
	if err != nil {
		s.log.Unlock()
		return store.Entry{}, false
	}
	s.idx.Lock()
	delete(s.idx.entries, f)
	s.idx.Unlock()
	s.used.Add(-r.meta.Size)
	s.count.Add(-1)
	if r.hasContent {
		s.log.segLive[r.loc.Seg] -= r.loc.RecordSize()
	}
	s.log.Unlock()
	_ = s.waitDurable(lsn)
	return r.meta, true
}

// SetPointer records and persists a diverted-replica reference.
func (s *Store) SetPointer(p store.Pointer) {
	if s.closed.Load() {
		return
	}
	s.log.Lock()
	if s.log.failed != nil {
		s.log.Unlock()
		return
	}
	lsn, err := s.appendWALLocked(walRecord{typ: recSetPointer, file: p.File, ptr: p})
	if err != nil {
		s.log.Unlock()
		return
	}
	s.idx.Lock()
	s.idx.pointers[p.File] = p
	s.idx.Unlock()
	s.log.Unlock()
	_ = s.waitDurable(lsn)
}

// GetPointer returns the pointer entry for f.
func (s *Store) GetPointer(f id.File) (store.Pointer, bool) {
	s.idx.RLock()
	p, ok := s.idx.pointers[f]
	s.idx.RUnlock()
	return p, ok
}

// RemovePointer deletes the pointer entry for f.
func (s *Store) RemovePointer(f id.File) (store.Pointer, bool) {
	if s.closed.Load() {
		return store.Pointer{}, false
	}
	s.log.Lock()
	if s.log.failed != nil {
		s.log.Unlock()
		return store.Pointer{}, false
	}
	p, ok := s.idx.pointers[f]
	if !ok {
		s.log.Unlock()
		return store.Pointer{}, false
	}
	lsn, err := s.appendWALLocked(walRecord{typ: recRemovePointer, file: f})
	if err != nil {
		s.log.Unlock()
		return store.Pointer{}, false
	}
	s.idx.Lock()
	delete(s.idx.pointers, f)
	s.idx.Unlock()
	s.log.Unlock()
	_ = s.waitDurable(lsn)
	return p, true
}

// Entries returns all replica entries ordered by fileId (metadata only;
// use Get for content).
func (s *Store) Entries() []store.Entry {
	s.idx.RLock()
	out := make([]store.Entry, 0, len(s.idx.entries))
	for _, r := range s.idx.entries {
		out = append(out, r.meta)
	}
	s.idx.RUnlock()
	slices.SortFunc(out, func(a, b store.Entry) int { return bytes.Compare(a.File[:], b.File[:]) })
	return out
}

// Pointers returns all pointer entries ordered by fileId.
func (s *Store) Pointers() []store.Pointer {
	s.idx.RLock()
	out := make([]store.Pointer, 0, len(s.idx.pointers))
	for _, p := range s.idx.pointers {
		out = append(out, p)
	}
	s.idx.RUnlock()
	slices.SortFunc(out, func(a, b store.Pointer) int { return bytes.Compare(a.File[:], b.File[:]) })
	return out
}

// appendSegmentLocked appends one content record to the active segment,
// rotating first if the target size is exceeded. Caller holds s.log.
func (s *Store) appendSegmentLocked(f id.File, content []byte) (Loc, error) {
	if s.log.seg == nil || s.log.segOff >= s.opts.SegmentTarget {
		if err := s.rotateSegmentLocked(); err != nil {
			return Loc{}, err
		}
	}
	buf, crc := encodeSegRecord(s.log.segBuf, f, content)
	s.log.segBuf = keepSegScratch(buf)
	if _, err := s.log.seg.WriteAt(buf, s.log.segOff); err != nil {
		s.log.failed = fmt.Errorf("logstore: segment append: %w", err)
		return Loc{}, s.log.failed
	}
	loc := Loc{Seg: s.log.segID, Off: s.log.segOff, Len: uint32(len(content)), CRC: crc}
	s.log.segOff += int64(len(buf))
	s.log.segTotal[s.log.segID] += int64(len(buf))
	return loc, nil
}

// rotateSegmentLocked seals the active segment and opens the next. The
// outgoing segment is fsynced before the swap: fsyncFiles and
// checkpoint only ever sync the *active* segment, so without this a
// record appended just before rotation would be acknowledged durable
// (its WAL record fsyncs) while the sealed file holding its content
// never reached disk. Sealing keeps the invariant that every sealed
// segment is fully durable.
func (s *Store) rotateSegmentLocked() error {
	if s.log.seg != nil {
		if err := s.log.seg.Sync(); err != nil {
			// Content already acknowledged durable may not be on disk;
			// the store can no longer honor its guarantees.
			s.log.failed = fmt.Errorf("logstore: seal segment %d: %w", s.log.segID, err)
			return s.log.failed
		}
		s.stats.Fsyncs.Add(1)
	}
	nid := s.log.segID + 1
	f, err := createLogFile(segPath(s.dir, nid), segMagic)
	if err != nil {
		return fmt.Errorf("logstore: new segment: %w", err)
	}
	// The new file's directory entry must be durable before any WAL
	// record referencing it is acknowledged.
	syncDir(s.dir)
	s.log.seg = f
	s.log.segID = nid
	s.log.segOff = fileHeaderSize
	s.segFDs.put(nid, f)
	s.stats.SegRotations.Add(1)
	return nil
}

// appendWALLocked frames and appends one record, returning its LSN.
// A partial write is rolled back by truncation; if even that fails the
// store is marked failed (the log tail would be garbage).
func (s *Store) appendWALLocked(r walRecord) (uint64, error) {
	buf := appendWALRecord(s.log.walBuf[:0], r)
	s.log.walBuf = buf
	if _, err := s.log.wal.WriteAt(buf, s.log.walOff); err != nil {
		if terr := s.log.wal.Truncate(s.log.walOff); terr != nil {
			s.log.failed = fmt.Errorf("logstore: WAL append failed and truncate failed (%v): %w", terr, err)
			return 0, s.log.failed
		}
		return 0, fmt.Errorf("logstore: WAL append: %w", err)
	}
	s.log.walOff += int64(len(buf))
	s.log.walSince += int64(len(buf))
	s.stats.WALAppends.Add(1)
	s.stats.WALBytes.Add(int64(len(buf)))
	return s.lsn.Add(1), nil
}

// checkpointDueLocked reports whether the auto-checkpoint threshold has
// been crossed. Caller holds s.log.
func (s *Store) checkpointDueLocked() bool {
	return s.opts.CheckpointBytes > 0 && s.log.walSince >= s.opts.CheckpointBytes
}

// waitDurable blocks (under SyncAlways) until the record at lsn is
// fsynced, batching with every other committer in flight: the first
// waiter past the watermark fsyncs once for all of them.
//
// On fsync failure the store is marked failed (all future mutations
// refuse at the front door) and the error is returned. The caller's
// mutation was already applied to the index before waiting, so an
// errored Add/Remove may still be visible on the (now read-only)
// store — the index is not rolled back, matching what a crash-reopen
// could surface if the appends did in fact reach disk.
func (s *Store) waitDurable(lsn uint64) error {
	if s.opts.Sync != SyncAlways {
		return nil
	}
	c := &s.commit
	c.Lock()
	defer c.Unlock()
	for c.synced < lsn {
		if c.err != nil {
			return c.err
		}
		if c.syncing {
			c.cond.Wait()
			continue
		}
		c.syncing = true
		c.Unlock()
		target := s.lsn.Load() // records appended so far are covered
		err := s.fsyncFiles()
		if err != nil {
			// Durability of acknowledged data is now unknown; wedge the
			// write path consistently (not just this commit group).
			s.log.Lock()
			if s.log.failed == nil {
				s.log.failed = err
			}
			s.log.Unlock()
		}
		c.Lock()
		c.syncing = false
		if err != nil {
			c.err = err
			c.cond.Broadcast()
			return err
		}
		if target > c.synced {
			c.synced = target
		}
		c.cond.Broadcast()
	}
	return nil
}

// fsyncFiles syncs the active segment, then the WAL — in that order, so
// the WAL is never durable ahead of content it references. syncMu
// excludes WAL rotation for the duration.
func (s *Store) fsyncFiles() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.log.Lock()
	wal, seg := s.log.wal, s.log.seg
	s.log.Unlock()
	if seg != nil {
		if err := seg.Sync(); err != nil {
			return fmt.Errorf("logstore: fsync segment: %w", err)
		}
	}
	if err := wal.Sync(); err != nil {
		return fmt.Errorf("logstore: fsync WAL: %w", err)
	}
	s.stats.Fsyncs.Add(1)
	return nil
}

// kickCheckpoint starts an asynchronous checkpoint unless one is
// already running. bgMu keeps the closed-check and bg.Add atomic: any
// kick that wins the lock before Close marks the store closed is
// covered by Close's bg.Wait; any kick after sees closed and backs off.
func (s *Store) kickCheckpoint() {
	if s.ckptRunning.Load() {
		return
	}
	s.bgMu.Lock()
	if s.closed.Load() {
		s.bgMu.Unlock()
		return
	}
	s.bg.Add(1)
	s.bgMu.Unlock()
	go func() {
		defer s.bg.Done()
		_ = s.Checkpoint()
	}()
}

// Close checkpoints (making the next open replay-free), syncs, and
// closes every file. Safe to call twice.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.stop)
	s.bgMu.Lock() // flush any kickCheckpoint that raced the closed flag
	s.bgMu.Unlock()
	s.bg.Wait()
	err := s.checkpoint()
	s.closeFiles()
	return err
}

// WALFile returns the active WAL file's path and valid length (the
// durability horizon of the last mutation), so a crash harness can
// truncate it after Kill. Crash-test instrumentation.
func (s *Store) WALFile() (string, int64) {
	s.log.Lock()
	defer s.log.Unlock()
	return walPath(s.dir, s.log.walSeq), s.log.walOff
}

// Kill abandons the store without syncing or checkpointing — the
// crash-testing hook. On-disk state is whatever the OS was handed;
// reopening exercises the recovery path.
func (s *Store) Kill() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.stop)
	s.bgMu.Lock() // flush any kickCheckpoint that raced the closed flag
	s.bgMu.Unlock()
	s.bg.Wait()
	s.closeFiles()
}

func (s *Store) closeFiles() {
	s.log.Lock()
	if s.log.wal != nil {
		s.log.wal.Close()
	}
	s.log.Unlock()
	s.segFDs.closeAll()
}

// background runs the interval-sync and periodic-compaction loops.
func (s *Store) background() {
	defer s.bg.Done()
	var syncC, compactC <-chan time.Time
	if s.opts.Sync == SyncInterval {
		t := time.NewTicker(syncEvery)
		defer t.Stop()
		syncC = t.C
	}
	if s.opts.CompactEvery > 0 {
		t := time.NewTicker(s.opts.CompactEvery)
		defer t.Stop()
		compactC = t.C
	}
	if syncC == nil && compactC == nil {
		return
	}
	for {
		select {
		case <-s.stop:
			return
		case <-syncC:
			_ = s.fsyncFiles()
		case <-compactC:
			for {
				did, err := s.CompactOnce()
				if !did || err != nil {
					break
				}
			}
		}
	}
}

// Path helpers.

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", seq))
}

func segPath(dir string, seg uint32) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.seg", seg))
}

func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint.ckp") }

// createLogFile creates a fresh file with the given magic header.
func createLogFile(path, magic string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteAt([]byte(magic), 0); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Errors are ignored on filesystems that reject directory
// fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
