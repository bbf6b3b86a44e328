// Package logstore implements a log-structured, concurrent-safe
// store.Backend: replica contents live in append-only segment files,
// metadata mutations append compact records to a write-ahead log, and
// periodic checkpoints bound recovery time. An Add is one segment append
// plus one WAL append.
//
// On-disk layout under the store directory (see DESIGN.md §10 for the
// full format diagram and recovery algorithm):
//
//	checkpoint.ckp      the live index as a compacted WAL: a header
//	                    record, then one add / set-pointer record each
//	wal-<seq>.log       metadata write-ahead log (rotated at checkpoint)
//	seg-<id>.seg        append-only content segments
//
// Every checkpoint, WAL and segment record carries a CRC32C checksum
// and explicit length, so recovery can detect and truncate a torn WAL
// tail, refuse a damaged checkpoint, and never surface corrupt content.
package logstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"past/internal/cert"
	"past/internal/id"
	"past/internal/store"
	"past/internal/wire"
)

// File-format constants. The magics version the format: readers reject
// files whose first 8 bytes differ.
const (
	walMagic  = "PASTWAL2"
	ckptMagic = "PASTCKP1"
	segMagic  = "PASTSEG1"

	// fileHeaderSize is the length of the magic prefix on every file kind.
	fileHeaderSize = 8

	// recHeaderSize frames every WAL and checkpoint record: u32 payload
	// length + u32 CRC32C of the payload, little-endian.
	recHeaderSize = 8

	// segRecHeaderSize frames every segment record: u32 content length +
	// u32 CRC32C of the content + the fileId, little-endian.
	segRecHeaderSize = 8 + id.FileBytes

	// maxRecordLen is a sanity bound on record payloads; a framed length
	// beyond it is treated as corruption, not an allocation request.
	maxRecordLen = 1 << 30
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recType enumerates the record types of the WAL and the checkpoint.
type recType byte

const (
	recAdd recType = iota + 1 // store a replica (metadata + content location)
	recRemove
	recSetPointer
	recRemovePointer
	recRelocate   // compaction moved a content record to a new location
	recCheckpoint // first record of a checkpoint file; never in a WAL
)

func (t recType) String() string {
	switch t {
	case recAdd:
		return "add"
	case recRemove:
		return "remove"
	case recSetPointer:
		return "set-pointer"
	case recRemovePointer:
		return "remove-pointer"
	case recRelocate:
		return "relocate"
	case recCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("recType(%d)", byte(t))
	}
}

// Loc addresses one content record inside a segment file, of the store
// or of the flash tier.
type Loc struct {
	Seg uint32 // segment id
	Off int64  // byte offset of the record header within the segment
	Len uint32 // content length
	CRC uint32 // CRC32C of the content
}

// RecordSize returns the bytes the record occupies in its segment.
func (l Loc) RecordSize() int64 { return segRecHeaderSize + int64(l.Len) }

// ckptHeader is the payload of a recCheckpoint record. The counts let a
// reader tell a whole checkpoint from one cut at a record boundary.
type ckptHeader struct {
	capacity int64
	walSeq   uint64 // first WAL file recovery must replay
	entries  uint64 // recAdd records that follow
	pointers uint64 // recSetPointer records that follow
}

// walRecord is one decoded WAL or checkpoint record.
type walRecord struct {
	typ  recType
	file id.File // every type but recCheckpoint

	// recAdd fields.
	entry      store.Entry // metadata only; Content always nil
	hasContent bool

	// recAdd (when hasContent) and recRelocate.
	loc Loc

	// recSetPointer fields.
	ptr store.Pointer

	// recCheckpoint fields.
	ckpt ckptHeader
}

// appendWALRecord appends r to buf as one framed record: [len][crc]
// then the payload, in the wire package's primitives.
func appendWALRecord(buf []byte, r walRecord) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, recHeaderSize)...)
	buf = append(buf, byte(r.typ))
	if r.typ != recCheckpoint {
		buf = append(buf, r.file[:]...)
	}
	switch r.typ {
	case recAdd:
		buf = wire.AppendInt(buf, r.entry.Size)
		buf = append(buf, byte(r.entry.Kind))
		buf = append(buf, r.entry.Owner[:]...)
		if buf = wire.AppendBool(buf, r.hasContent); r.hasContent {
			buf = appendLoc(buf, r.loc)
		}
		buf = wire.AppendPtr(buf, r.entry.Cert)
	case recRemove, recRemovePointer:
		// fileId only.
	case recSetPointer:
		buf = append(buf, r.ptr.Target[:]...)
		buf = wire.AppendInt(buf, r.ptr.Size)
		buf = append(buf, byte(r.ptr.Role))
	case recRelocate:
		buf = appendLoc(buf, r.loc)
	case recCheckpoint:
		buf = wire.AppendInt(buf, r.ckpt.capacity)
		buf = wire.AppendUvarint(buf, r.ckpt.walSeq)
		buf = wire.AppendUvarint(buf, r.ckpt.entries)
		buf = wire.AppendUvarint(buf, r.ckpt.pointers)
	default:
		panic(fmt.Sprintf("logstore: encode unknown record type %d", r.typ))
	}
	payload := buf[start+recHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

func appendLoc(buf []byte, l Loc) []byte {
	buf = wire.AppendUvarint(buf, uint64(l.Seg))
	buf = wire.AppendInt(buf, l.Off)
	buf = wire.AppendUvarint(buf, uint64(l.Len))
	return wire.AppendUvarint(buf, uint64(l.CRC))
}

func readLoc(rd *wire.Reader) Loc {
	return Loc{Seg: rd.Uint32(), Off: rd.Int64(), Len: rd.Uint32(), CRC: rd.Uint32()}
}

// decodeWALPayload parses one CRC-verified payload back into a
// walRecord. It is the only reader of on-disk metadata: WAL files and
// the checkpoint both go through it.
func decodeWALPayload(p []byte) (walRecord, error) {
	var r walRecord
	rd := wire.NewReader(p)
	r.typ = recType(rd.Byte())
	if r.typ != recCheckpoint {
		r.file = rd.File()
	}
	switch r.typ {
	case recAdd:
		r.entry.File = r.file
		r.entry.Size = rd.Int64()
		r.entry.Kind = store.Kind(rd.Byte())
		r.entry.Owner = rd.Node()
		if r.hasContent = rd.Bool(); r.hasContent {
			r.loc = readLoc(rd)
		}
		r.entry.Cert = wire.ReadPtr[cert.FileCertificate](rd)
	case recRemove, recRemovePointer:
		// fileId only.
	case recSetPointer:
		r.ptr.File = r.file
		r.ptr.Target = rd.Node()
		r.ptr.Size = rd.Int64()
		r.ptr.Role = store.PtrRole(rd.Byte())
	case recRelocate:
		r.loc = readLoc(rd)
	case recCheckpoint:
		r.ckpt = ckptHeader{capacity: rd.Int64(), walSeq: rd.Uvarint(), entries: rd.Uvarint(), pointers: rd.Uvarint()}
	default:
		return r, fmt.Errorf("logstore: unknown record type %d", byte(r.typ))
	}
	if err := rd.Err(); err != nil {
		return r, fmt.Errorf("logstore: bad %s record: %w", r.typ, err)
	}
	if r.entry.Size < 0 || r.loc.Off < 0 {
		return r, fmt.Errorf("logstore: negative size or offset in %s record", r.typ)
	}
	return r, nil
}

// maxSegScratch is the largest framing buffer a store or flash tier
// keeps between appends; one huge file must not pin its size in memory
// for good (the bound wire's encode buffers use).
const maxSegScratch = 1 << 20

// encodeSegRecord renders one content record — frame + fileId + content
// — into buf's storage and returns it with the content's CRC. buf is
// the scratch of whoever holds the append lock; the caller writes the
// record out and hands the buffer to keepSegScratch, so the write is the
// only copy an append makes that outlives it.
func encodeSegRecord(buf []byte, f id.File, content []byte) ([]byte, uint32) {
	crc := crc32.Checksum(content, castagnoli)
	buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(content)))
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	buf = append(buf, f[:]...)
	return append(buf, content...), crc
}

// keepSegScratch returns what to retain of a framing buffer after its
// record is written: the buffer itself, or nothing above maxSegScratch.
func keepSegScratch(buf []byte) []byte {
	if cap(buf) > maxSegScratch {
		return nil
	}
	return buf
}

// parseSegHeader decodes just the fixed header of a segment record,
// for scans that only need lengths and file ids (compaction).
func parseSegHeader(buf []byte) (clen, crc uint32, f id.File, err error) {
	if len(buf) < segRecHeaderSize {
		return 0, 0, f, fmt.Errorf("logstore: segment record shorter than header (%d bytes)", len(buf))
	}
	clen = binary.LittleEndian.Uint32(buf[0:])
	crc = binary.LittleEndian.Uint32(buf[4:])
	copy(f[:], buf[8:segRecHeaderSize])
	return clen, crc, f, nil
}

// parseSegRecord splits a full segment record buffer (header included)
// into its fields. It validates only framing; the caller compares the
// CRC against the content.
func parseSegRecord(buf []byte) (clen, crc uint32, f id.File, content []byte, err error) {
	if clen, crc, f, err = parseSegHeader(buf); err != nil {
		return 0, 0, f, nil, err
	}
	if int64(len(buf)-segRecHeaderSize) < int64(clen) {
		return clen, crc, f, nil, fmt.Errorf("logstore: segment record content truncated (want %d, have %d)", clen, len(buf)-segRecHeaderSize)
	}
	return clen, crc, f, buf[segRecHeaderSize : segRecHeaderSize+int(clen)], nil
}

func crc32Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// sortEntries orders entries by fileId, matching the in-memory store's
// deterministic scan order.
func sortEntries(out []store.Entry) {
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].File[:], out[j].File[:]) < 0
	})
}

// sortPointers orders pointers by fileId.
func sortPointers(out []store.Pointer) {
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].File[:], out[j].File[:]) < 0
	})
}
