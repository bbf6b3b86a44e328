package logstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// Checkpoint snapshots the metadata index, rotates the WAL, and deletes
// the superseded WAL files. Concurrent calls return immediately
// (ckptRunning is a fast-path skip); the body itself is additionally
// serialized under ckptMu against the final checkpoint in Close.
func (s *Store) Checkpoint() error {
	if s.closed.Load() {
		return errClosed
	}
	if !s.ckptRunning.CompareAndSwap(false, true) {
		return nil
	}
	defer s.ckptRunning.Store(false)
	return s.checkpoint()
}

// checkpoint is the body, also called from Close. ckptMu serializes
// every caller: the ckptRunning gate alone does not cover Close, and
// two interleaved checkpoints can commit a stale snapshot after the
// newer one already deleted the WAL files its WALSeq points at.
func (s *Store) checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	// Everything the snapshot will claim must be durable first; then
	// rotation can move the write point to a fresh WAL file. syncMu
	// keeps a concurrent group-commit leader from fsyncing the file
	// being swapped out.
	s.syncMu.Lock()
	s.log.Lock()
	if s.log.failed != nil {
		err := s.log.failed
		s.log.Unlock()
		s.syncMu.Unlock()
		return err
	}
	if s.log.seg != nil {
		if err := s.log.seg.Sync(); err != nil {
			s.log.Unlock()
			s.syncMu.Unlock()
			return fmt.Errorf("logstore: checkpoint segment sync: %w", err)
		}
	}
	if err := s.log.wal.Sync(); err != nil {
		s.log.Unlock()
		s.syncMu.Unlock()
		return fmt.Errorf("logstore: checkpoint WAL sync: %w", err)
	}
	s.stats.Fsyncs.Add(1)

	// The snapshot is the WAL that would rebuild the index from empty:
	// a header naming the first WAL file recovery must still replay
	// (everything in lower-numbered files is folded in here), then one
	// add or set-pointer record per live entry.
	hdr := ckptHeader{capacity: s.opts.Capacity, walSeq: s.log.walSeq + 1, entries: uint64(s.count.Load())}
	for i := range s.shards {
		hdr.pointers += uint64(len(s.shards[i].pointers))
	}
	snap := appendWALRecord([]byte(ckptMagic), walRecord{typ: recCheckpoint, ckpt: hdr})
	for i := range s.shards {
		sh := &s.shards[i]
		for f, r := range sh.entries {
			snap = appendWALRecord(snap, walRecord{typ: recAdd, file: f, entry: r.meta, hasContent: r.hasContent, loc: r.loc})
		}
		for f, p := range sh.pointers {
			snap = appendWALRecord(snap, walRecord{typ: recSetPointer, file: f, ptr: p})
		}
	}

	newWAL, err := createLogFile(walPath(s.dir, hdr.walSeq), walMagic)
	if err != nil {
		s.log.Unlock()
		s.syncMu.Unlock()
		return fmt.Errorf("logstore: checkpoint rotate: %w", err)
	}
	// The new WAL's directory entry must be durable before any record
	// appended to it is acknowledged.
	syncDir(s.dir)
	oldWAL, oldSeq := s.log.wal, s.log.walSeq
	s.log.wal = newWAL
	s.log.walSeq = hdr.walSeq
	s.log.walOff = fileHeaderSize
	s.log.walSince = 0
	durable := s.lsn.Load()
	s.log.Unlock()

	// Every record up to the rotation point was just fsynced: advance
	// the group-commit watermark so queued committers return.
	s.commit.Lock()
	if durable > s.commit.synced {
		s.commit.synced = durable
	}
	s.commit.cond.Broadcast()
	s.commit.Unlock()
	oldWAL.Close()
	s.syncMu.Unlock()

	if err := writeCheckpointFile(s.dir, snap); err != nil {
		return err
	}
	// The snapshot is durable; WAL files below its walSeq are dead weight.
	for seq := oldSeq; seq > 0; seq-- {
		p := walPath(s.dir, seq)
		if err := os.Remove(p); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				break // older files were already cleaned up
			}
			break
		}
	}
	s.stats.Checkpoints.Add(1)
	return nil
}

// writeCheckpointFile writes the snapshot via temp-file + fsync +
// rename, so a crash leaves either the old or the new checkpoint.
func writeCheckpointFile(dir string, snap []byte) error {
	tmp, err := os.CreateTemp(dir, "checkpoint-*")
	if err != nil {
		return fmt.Errorf("logstore: checkpoint: %w", err)
	}
	if _, err := tmp.Write(snap); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("logstore: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("logstore: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("logstore: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), checkpointPath(dir)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("logstore: checkpoint rename: %w", err)
	}
	syncDir(dir)
	return nil
}

// loadCheckpoint feeds the checkpoint's records to apply and returns
// the first WAL sequence number recovery must replay. A missing file is
// an empty checkpoint (present=false, firstSeq=1). The file is written
// whole before its rename, so unlike a WAL it has no legitimate torn
// state: any byte that is not part of a valid record, and any record
// count that disagrees with the header, is an error.
func loadCheckpoint(dir string, apply func(walRecord)) (firstSeq uint64, present bool, err error) {
	path := checkpointPath(dir)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 1, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("logstore: read checkpoint: %w", err)
	}
	if len(data) < fileHeaderSize || string(data[:fileHeaderSize]) != ckptMagic {
		return 0, true, fmt.Errorf("logstore: %s: bad checkpoint header", path)
	}
	var hdr ckptHeader
	var adds, ptrs uint64
	first := true
	_, off, err := scanRecords(data, func(r walRecord) error {
		if (r.typ == recCheckpoint) != first {
			return fmt.Errorf("logstore: %s record out of place in checkpoint", r.typ)
		}
		first = false
		switch r.typ {
		case recCheckpoint:
			hdr = r.ckpt
			return nil
		case recAdd:
			adds++
		case recSetPointer:
			ptrs++
		default:
			return fmt.Errorf("logstore: %s record in checkpoint", r.typ)
		}
		apply(r)
		return nil
	})
	switch {
	case err != nil:
		return 0, true, fmt.Errorf("logstore: %s: %w", path, err)
	case off != int64(len(data)):
		return 0, true, fmt.Errorf("logstore: %s: damaged record at offset %d", path, off)
	case first || adds != hdr.entries || ptrs != hdr.pointers:
		return 0, true, fmt.Errorf("logstore: %s: truncated: %d entries and %d pointers where the header counts %d and %d",
			path, adds, ptrs, hdr.entries, hdr.pointers)
	}
	return hdr.walSeq, true, nil
}
