package logstore

import (
	"fmt"
	"os"

	"past/internal/id"
)

// CompactOnce rewrites the lowest-numbered sealed segment whose
// live-bytes fraction is below Options.CompactRatio: every live record
// is re-appended to the active segment (with a relocate WAL record),
// the relocations are fsynced, and the old file is deleted. Returns
// whether a segment was compacted. Reads proceed throughout — a Get
// racing a relocation retries against the updated location.
func (s *Store) CompactOnce() (bool, error) {
	if s.opts.CompactRatio < 0 || s.closed.Load() {
		return false, nil
	}
	cand, total, ok := s.pickCompactionCandidate()
	if !ok {
		return false, nil
	}

	s.segFDs.RLock()
	fd := s.segFDs.m[cand]
	s.segFDs.RUnlock()
	if fd == nil {
		return false, nil
	}

	// Scan the sealed segment (its records are immutable) and relocate
	// every record the index still points at.
	end := fileHeaderSize + total
	for off := int64(fileHeaderSize); off < end; {
		hdr := make([]byte, segRecHeaderSize)
		if _, err := fd.ReadAt(hdr, off); err != nil {
			break // torn sealed tail; everything past it is dead
		}
		clen, _, f, perr := parseSegHeader(hdr)
		if perr != nil || int64(clen) > maxRecordLen {
			break
		}
		recSize := segRecHeaderSize + int64(clen)
		if off+recSize > end {
			break
		}
		s.idx.RLock()
		r, live := s.idx.entries[f]
		liveHere := live && r.hasContent && r.loc.Seg == cand && r.loc.Off == off
		s.idx.RUnlock()
		if liveHere {
			if err := s.relocate(f, cand, off); err != nil {
				return false, err
			}
		}
		off += recSize
	}

	// Relocation WAL records and copied content must be durable before
	// the only other copy disappears. Each relocated record is either
	// in the current active segment (synced here) or in a segment that
	// was sealed since — and rotateSegmentLocked fsyncs a segment
	// before sealing it, so those are already on disk.
	if err := s.fsyncFiles(); err != nil {
		return false, err
	}

	s.log.Lock()
	if s.log.segLive[cand] != 0 {
		// A concurrent Add cannot target a sealed segment, so this only
		// means a relocation was skipped; leave the file for a later pass.
		s.log.Unlock()
		return false, nil
	}
	delete(s.log.segLive, cand)
	delete(s.log.segTotal, cand)
	s.log.Unlock()

	s.segFDs.drop(cand)
	if err := os.Remove(segPath(s.dir, cand)); err != nil {
		return false, fmt.Errorf("logstore: remove compacted segment: %w", err)
	}
	s.stats.Compactions.Add(1)
	s.stats.CompactedBytes.Add(total)
	return true, nil
}

// pickCompactionCandidate selects the lowest sealed segment under the
// live-ratio threshold (deterministic, so tests can drive it).
func (s *Store) pickCompactionCandidate() (seg uint32, total int64, ok bool) {
	s.log.Lock()
	defer s.log.Unlock()
	best := uint32(0)
	found := false
	for sid, tot := range s.log.segTotal {
		if sid == s.log.segID || tot <= 0 {
			continue
		}
		live := s.log.segLive[sid]
		if live > 0 && float64(live)/float64(tot) >= s.opts.CompactRatio {
			continue
		}
		if !found || sid < best {
			best, total, found = sid, tot, true
		}
	}
	return best, total, found
}

// relocate copies one live record from a sealed segment to the active
// one: re-read (with CRC check), re-append, WAL relocate record, index
// update. Holding s.log across the re-check makes it atomic against a
// concurrent Remove of the same file.
func (s *Store) relocate(f id.File, seg uint32, off int64) error {
	s.log.Lock()
	defer s.log.Unlock()
	if s.log.failed != nil {
		return s.log.failed
	}
	// Holding s.log, the index can be read without its lock.
	r, ok := s.idx.entries[f]
	if !ok || !r.hasContent || r.loc.Seg != seg || r.loc.Off != off {
		return nil // removed or already moved; nothing to do
	}
	oldLoc := r.loc
	content, okRead := s.readContent(f, oldLoc)
	if !okRead {
		// The only copy is unreadable; the entry keeps its (dead)
		// location and the segment stays pinned by its live count.
		return nil
	}
	newLoc, err := s.appendSegmentLocked(f, content)
	if err != nil {
		return err
	}
	if _, err := s.appendWALLocked(walRecord{typ: recRelocate, file: f, loc: newLoc}); err != nil {
		return err
	}
	s.idx.Lock()
	r.loc = newLoc
	s.idx.Unlock()
	s.log.segLive[seg] -= oldLoc.RecordSize()
	s.log.segLive[newLoc.Seg] += newLoc.RecordSize()
	return nil
}
