package logstore

import (
	"fmt"
	"os"
	"strings"

	"past/internal/id"
)

// FsckReport is the result of an offline verification pass over a
// logstore directory. Errors are hard corruption (fsck exits non-zero
// on them); Warnings are crash artifacts the engine recovers from
// (torn tails, content lost to an unsynced crash, orphan segments).
type FsckReport struct {
	Dir string

	HasCheckpoint bool
	WALFiles      int
	WALRecords    int
	TornWALFiles  int   // WAL files ending in a torn tail
	TornWALBytes  int64 // bytes in those tails

	Segments       int
	SegmentRecords int
	DeadRecords    int   // valid records no entry references
	TornSegBytes   int64 // trailing bytes of the active segment that parse as no record

	Entries        int
	Pointers       int
	MissingContent int // entries whose content is absent (crash artifact)

	OrphanSegments int // segment files no entry references (not the active one)

	Errors   []string
	Warnings []string
}

// OK reports whether the directory is free of corruption.
func (r *FsckReport) OK() bool { return len(r.Errors) == 0 }

func (r *FsckReport) errf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func (r *FsckReport) warnf(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// String renders the report as a human-readable summary.
func (r *FsckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fsck %s\n", r.Dir)
	fmt.Fprintf(&b, "  checkpoint: present=%v\n", r.HasCheckpoint)
	fmt.Fprintf(&b, "  wal: %d file(s), %d record(s), %d torn tail(s) (%d bytes)\n",
		r.WALFiles, r.WALRecords, r.TornWALFiles, r.TornWALBytes)
	fmt.Fprintf(&b, "  segments: %d file(s), %d record(s), %d dead, %d torn tail bytes, %d orphan file(s)\n",
		r.Segments, r.SegmentRecords, r.DeadRecords, r.TornSegBytes, r.OrphanSegments)
	fmt.Fprintf(&b, "  index: %d entries, %d pointers, %d missing content\n",
		r.Entries, r.Pointers, r.MissingContent)
	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "  warning: %s\n", w)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "  ERROR: %s\n", e)
	}
	if r.OK() {
		b.WriteString("  RESULT: OK\n")
	} else {
		b.WriteString("  RESULT: CORRUPT\n")
	}
	return b.String()
}

// Fsck verifies a logstore directory without opening it for writing:
// checkpoint decodability, WAL record framing and checksums, segment
// record checksums, and the cross-references between the recovered
// index and the segments. It never modifies the directory.
func Fsck(dir string) (*FsckReport, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("logstore: fsck %s: %w", dir, err)
	}
	r := &FsckReport{Dir: dir}

	// Rebuild the index exactly as recovery would, through the same
	// readers and the same apply switch, into a store that opens no file.
	s := newStore(dir, Options{})
	if err := refuseOldFormat(dir); err != nil {
		r.errf("%v", err)
	}
	firstSeq, present, err := loadCheckpoint(dir, s.applyRecord)
	if err != nil {
		r.errf("%v", err)
		firstSeq = 1
	}
	r.HasCheckpoint = present

	seqs, err := listNumbered(dir, "wal-", ".log")
	if err != nil {
		return nil, err
	}
	for len(seqs) > 0 && seqs[0] < firstSeq {
		seqs = seqs[1:]
	}
	if len(seqs) == 0 && !present {
		r.warnf("no checkpoint and no WAL: empty or foreign directory")
	}
	for i, seq := range seqs {
		isLast := i == len(seqs)-1
		r.WALFiles++
		path := walPath(dir, seq)
		w, err := readWALFile(path, s.applyRecord)
		r.WALRecords += w.records
		switch {
		case err != nil:
			r.errf("%v", err)
		case w.torn() && !isLast:
			r.errf("%s: invalid record at offset %d in non-final WAL", path, w.validLen)
		case w.torn():
			r.TornWALFiles++
			r.TornWALBytes += w.size - w.validLen
			r.warnf("%s: torn tail, %d bytes after offset %d", path, w.size-w.validLen, w.validLen)
		}
	}
	r.Entries = s.Len()
	r.Pointers = len(s.idx.pointers)

	// Scan segments: structure and checksums of every record, and which
	// records the index references.
	segIDs, err := listNumbered(dir, "seg-", ".seg")
	if err != nil {
		return nil, err
	}
	var active uint32
	if len(segIDs) > 0 {
		active = uint32(segIDs[len(segIDs)-1])
	}
	segRecords := make(map[uint32]map[int64]bool) // seg -> offset -> crc ok
	for _, sid64 := range segIDs {
		sid := uint32(sid64)
		r.Segments++
		path := segPath(dir, sid)
		data, err := os.ReadFile(path)
		if err != nil {
			r.errf("read %s: %v", path, err)
			continue
		}
		recs := make(map[int64]bool)
		segRecords[sid] = recs
		if len(data) < fileHeaderSize || string(data[:fileHeaderSize]) != segMagic {
			if sid == active {
				r.warnf("%s: torn header (crash during segment creation)", path)
				r.TornSegBytes += int64(len(data))
			} else {
				r.errf("%s: bad segment header", path)
			}
			continue
		}
		end := walkSegment(sid, data, func(_ id.File, loc Loc, crcOK bool) bool {
			recs[loc.Off] = crcOK
			r.SegmentRecords++
			return true
		})
		if tail := int64(len(data)) - end; tail > 0 {
			r.TornSegBytes += tail
			if sid != active {
				r.warnf("%s: %d unparseable bytes at offset %d (dead tail of sealed segment)", path, tail, end)
			}
		}
	}

	// Cross-reference: every entry's content must be a CRC-valid record
	// at its recorded location. An absent record or short segment is a
	// crash artifact (the engine serves metadata only); a present record
	// whose checksum fails is corruption.
	refs := make(map[uint32]int) // seg -> records an entry references
	for f, e := range s.idx.entries {
		if !e.hasContent {
			continue
		}
		recs, haveSeg := segRecords[e.loc.Seg]
		if !haveSeg {
			r.MissingContent++
			r.warnf("entry %s: segment %d missing (content lost to crash)", f.Short(), e.loc.Seg)
			continue
		}
		okCRC, haveRec := recs[e.loc.Off]
		if !haveRec {
			r.MissingContent++
			r.warnf("entry %s: no record at seg %d offset %d (content lost to crash)", f.Short(), e.loc.Seg, e.loc.Off)
			continue
		}
		refs[e.loc.Seg]++
		if !okCRC {
			r.errf("entry %s: checksum mismatch at seg %d offset %d", f.Short(), e.loc.Seg, e.loc.Off)
		}
	}

	// Dead records and orphan segments.
	for sid, recs := range segRecords {
		r.DeadRecords += len(recs) - refs[sid]
		if refs[sid] == 0 && sid != active {
			r.OrphanSegments++
			r.warnf("seg %d: no referenced records (compaction leftover)", sid)
		}
	}
	return r, nil
}
