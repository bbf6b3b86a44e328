// Package ec makes erasure coding a first-class storage mode: the
// file encoding the paper sketches as future work in section 3.6, and
// the tree's only one (internal/frag stripes large files, section 3.4,
// and leaves their coding to this mode). An object inserted in EC
// mode is RS(m, n)-coded by the root node into m data + n parity
// fragments placed on distinct leaf-set members; a fragment map —
// fileId, object size, coding parameters, per-fragment checksums, and
// holders — is stored as the k-replicated root object, so the map
// inherits PAST's replica maintenance while the bulk data pays only
// (m+n)/m storage overhead. Lookups reconstruct from any m fragments.
//
// The piece that makes this a subsystem rather than a codec is the lazy
// repair engine (see the queue in this package and the maintenance hook
// in internal/past): fragment-level anti-entropy detects missing or
// corrupt fragments (CRC-verified on every read, like the logstore),
// enqueues them on a per-node repair queue with deterministic seeded
// scheduling and a configurable per-pass bandwidth cap, re-encodes the
// lost fragment from m survivors, and re-places it.
package ec

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"past/internal/id"
)

// Params is one RS(m, n) configuration: Data (m) data fragments plus
// Parity (n) parity fragments. Any Data fragments reconstruct the
// object; storage overhead is (m+n)/m.
type Params struct {
	Data   int
	Parity int
}

// Validate checks the shard counts against the GF(2^8) coder's bounds.
func (p Params) Validate() error {
	if p.Data <= 0 || p.Parity <= 0 || p.Data+p.Parity > 255 {
		return fmt.Errorf("ec: invalid params rs(%d,%d)", p.Data, p.Parity)
	}
	return nil
}

// Total returns Data+Parity, the fragment count per object.
func (p Params) Total() int { return p.Data + p.Parity }

// Overhead returns the storage multiplier (m+n)/m.
func (p Params) Overhead() float64 { return float64(p.Total()) / float64(p.Data) }

func (p Params) String() string { return fmt.Sprintf("rs(%d,%d)", p.Data, p.Parity) }

// ParseParams parses the CLI form "m,n" (e.g. "4,2").
func ParseParams(s string) (Params, error) {
	parts := strings.Split(strings.TrimSpace(s), ",")
	if len(parts) != 2 {
		return Params{}, fmt.Errorf("ec: want m,n (e.g. 4,2), got %q", s)
	}
	m, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	n, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err1 != nil || err2 != nil {
		return Params{}, fmt.Errorf("ec: want m,n (e.g. 4,2), got %q", s)
	}
	p := Params{Data: m, Parity: n}
	return p, p.Validate()
}

// castagnoli is the CRC32-C table, the same polynomial the logstore
// uses for its record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C of a fragment payload.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// Fragment is one stored shard of an erasure-coded object.
type Fragment struct {
	File    id.File
	Index   int
	Version uint32
	Data    []byte
	CRC     uint32 // CRC32-C of Data, computed at encode time
}

// Map is the fragment map stored (k-replicated) under the object's
// fileId: everything a node needs to reconstruct the object or repair a
// fragment. Version increments on every re-placement so stale maps lose
// to repaired ones.
type Map struct {
	File      id.File
	Size      int64 // original object size
	Data      int   // RS data shards (m)
	Parity    int   // RS parity shards (n)
	ShardSize int   // bytes per fragment
	Version   uint32
	Holders   []id.Node // Holders[i] holds fragment i
	CRCs      []uint32  // CRCs[i] is fragment i's CRC32-C
}

// The encoded map is the magic, the fileId, a fixed 28-byte header
// (size i64, data, parity and shard size i32, version u32, holder count
// i32), then one (nodeId, CRC u32) pair per holder, all big-endian.
const (
	mapMagic      = "PASTECM1"
	mapFixedSize  = len(mapMagic) + id.FileBytes + 28
	mapHolderSize = id.NodeBytes + 4
)

// Params returns the map's coding parameters.
func (m *Map) Params() Params { return Params{Data: m.Data, Parity: m.Parity} }

// Encode serializes the map; the result is the content of the
// k-replicated root object.
func (m *Map) Encode() []byte {
	b := make([]byte, 0, mapFixedSize+len(m.Holders)*mapHolderSize)
	b = append(b, mapMagic...)
	b = append(b, m.File[:]...)
	b = binary.BigEndian.AppendUint64(b, uint64(m.Size))
	b = binary.BigEndian.AppendUint32(b, uint32(m.Data))
	b = binary.BigEndian.AppendUint32(b, uint32(m.Parity))
	b = binary.BigEndian.AppendUint32(b, uint32(m.ShardSize))
	b = binary.BigEndian.AppendUint32(b, m.Version)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Holders)))
	for i := range m.Holders {
		b = append(b, m.Holders[i][:]...)
		b = binary.BigEndian.AppendUint32(b, m.CRCs[i])
	}
	return b
}

// IsMap reports whether raw looks like an encoded fragment map — the
// test the lookup and maintenance paths use to recognize an EC root
// object among ordinary replicas.
func IsMap(raw []byte) bool {
	return len(raw) > len(mapMagic) && string(raw[:len(mapMagic)]) == mapMagic
}

// MaxMapSize bounds Encode's output over all valid parameters (255
// holders). Store scans list metadata-only entries; this lets the
// maintenance scan rule out large replicas without loading their bytes
// just to test IsMap.
var MaxMapSize = int64(mapFixedSize + 255*mapHolderSize)

// DecodeMap parses an encoded fragment map. Every count is checked
// against the input's length before anything is allocated, bytes after
// the last holder are an error, and the shard size must be the one
// rs.Split cuts the object into: ceil(Size/Data).
func DecodeMap(raw []byte) (*Map, error) {
	if !IsMap(raw) {
		return nil, fmt.Errorf("ec: not a fragment map")
	}
	if len(raw) < mapFixedSize {
		return nil, fmt.Errorf("ec: truncated map")
	}
	var m Map
	b := raw[len(mapMagic):]
	b = b[copy(m.File[:], b):]
	m.Size = int64(binary.BigEndian.Uint64(b))
	m.Data = int(int32(binary.BigEndian.Uint32(b[8:])))
	m.Parity = int(int32(binary.BigEndian.Uint32(b[12:])))
	m.ShardSize = int(int32(binary.BigEndian.Uint32(b[16:])))
	m.Version = binary.BigEndian.Uint32(b[20:])
	holders := int(int32(binary.BigEndian.Uint32(b[24:])))
	b = b[28:]
	if err := m.Params().Validate(); err != nil {
		return nil, err
	}
	if holders != m.Params().Total() || m.ShardSize <= 0 || m.Size <= 0 {
		return nil, fmt.Errorf("ec: malformed map")
	}
	if want := (m.Size-1)/int64(m.Data) + 1; int64(m.ShardSize) != want {
		return nil, fmt.Errorf("ec: map of %d bytes in %d shards claims %d-byte shards, not %d", m.Size, m.Data, m.ShardSize, want)
	}
	if len(b) != holders*mapHolderSize {
		return nil, fmt.Errorf("ec: map is %d bytes, rs(%d,%d) needs %d", len(raw), m.Data, m.Parity, mapFixedSize+holders*mapHolderSize)
	}
	m.Holders = make([]id.Node, holders)
	m.CRCs = make([]uint32, holders)
	for i := range m.Holders {
		b = b[copy(m.Holders[i][:], b):]
		m.CRCs[i] = binary.BigEndian.Uint32(b)
		b = b[4:]
	}
	return &m, nil
}

// FragStore is a node's local fragment table. Fragments are bulk data
// held on behalf of an object rooted elsewhere — deliberately volatile
// (a crashed node loses them, and lazy repair re-creates them from
// survivors), unlike the fragment map, which rides the durable replica
// store. Reads verify the CRC; a corrupt fragment is dropped on read
// and reported missing, turning silent corruption into a repair.
//
// Fragments are indexed by file, each file's in ascending Index order,
// so every operation costs what that one file's handful of fragments
// costs, however many files the node holds fragments of.
type FragStore struct {
	mu          sync.Mutex
	files       map[id.File][]Fragment
	count       int
	bytes       atomic.Int64 // written under mu, read without it
	reads       int64
	crcFailures int64
}

// NewFragStore creates an empty fragment table.
func NewFragStore() *FragStore {
	return &FragStore{files: make(map[id.File][]Fragment)}
}

// find returns file's fragments and the position of idx among them:
// where it is, or where it would go. Caller holds mu.
func (s *FragStore) find(file id.File, idx int) ([]Fragment, int, bool) {
	fs := s.files[file]
	i, ok := slices.BinarySearchFunc(fs, idx, func(f Fragment, idx int) int { return cmp.Compare(f.Index, idx) })
	return fs, i, ok
}

// removeAt drops fs[i], one of file's fragments. Caller holds mu.
func (s *FragStore) removeAt(file id.File, fs []Fragment, i int) {
	s.bytes.Add(-int64(len(fs[i].Data)))
	s.count--
	if fs = slices.Delete(fs, i, i+1); len(fs) == 0 {
		delete(s.files, file)
	} else {
		s.files[file] = fs
	}
}

// Put stores (or replaces) a fragment and takes ownership of f.Data: the
// slice is kept, not copied. It may be part of the inserting client's
// own buffer, so neither the caller nor the store may write to it
// afterwards — inserted content is immutable — and it must never be a
// view of a buffer that is reused: the caller copies a borrowed
// received fragment first.
func (s *FragStore) Put(f Fragment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs, i, ok := s.find(f.File, f.Index)
	if ok {
		s.bytes.Add(-int64(len(fs[i].Data)))
		fs[i] = f
	} else {
		s.files[f.File] = slices.Insert(fs, i, f)
		s.count++
	}
	s.bytes.Add(int64(len(f.Data)))
}

// verify reports whether fs[i], one of file's fragments, passes its CRC;
// a checksum mismatch deletes it. Caller holds mu.
func (s *FragStore) verify(file id.File, fs []Fragment, i int) bool {
	if Checksum(fs[i].Data) == fs[i].CRC {
		return true
	}
	s.crcFailures++
	s.removeAt(file, fs, i)
	return false
}

// Get returns the fragment, CRC-verified. A checksum mismatch deletes
// the fragment and reports it missing — the caller's repair machinery
// takes it from there.
func (s *FragStore) Get(file id.File, idx int) (Fragment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs, i, ok := s.find(file, idx)
	if !ok {
		return Fragment{}, false
	}
	s.reads++
	if !s.verify(file, fs, i) {
		return Fragment{}, false
	}
	return fs[i], true
}

// Has reports whether the fragment is present with a valid CRC, and its
// version. Like Get it drops a corrupt fragment, but it does not count
// as a read.
func (s *FragStore) Has(file id.File, idx int) (uint32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs, i, ok := s.find(file, idx)
	if !ok || !s.verify(file, fs, i) {
		return 0, false
	}
	return fs[i].Version, true
}

// Delete removes a fragment.
func (s *FragStore) Delete(file id.File, idx int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fs, i, ok := s.find(file, idx); ok {
		s.removeAt(file, fs, i)
	}
}

// Indices returns the sorted fragment indices held for a file.
func (s *FragStore) Indices(file id.File) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs := s.files[file]
	if len(fs) == 0 {
		return nil
	}
	out := make([]int, len(fs))
	for i, f := range fs {
		out[i] = f.Index
	}
	return out
}

// Len returns the number of fragments held.
func (s *FragStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Bytes returns the fragment payload bytes held. It takes no lock, so
// a node may read it on every replica add.
func (s *FragStore) Bytes() int64 { return s.bytes.Load() }

// Reads returns the number of CRC-verified fragment reads served.
func (s *FragStore) Reads() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads
}

// CRCFailures returns how many fragments failed their checksum on read.
func (s *FragStore) CRCFailures() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crcFailures
}
