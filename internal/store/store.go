// Package store implements a PAST node's local storage: the file table
// holding primary replicas, diverted replicas held on behalf of other
// nodes, and the pointer entries created by replica diversion, together
// with the free-space accounting that drives the paper's storage
// acceptance policy.
//
// The acceptance policy (section 3.3.1) is based on the metric SD/FN,
// where SD is the size of file D and FN is the node's remaining free
// space: a node rejects D if SD/FN > t. Primary replica stores use a
// threshold tpri, diverted replica stores the stricter tdiv < tpri, so a
// node keeps room for primary replicas and files are only diverted to
// nodes with substantially more free space.
package store

import (
	"bytes"
	"fmt"
	"slices"

	"past/internal/cert"
	"past/internal/id"
)

// Kind classifies a locally held replica.
type Kind uint8

// Replica kinds.
const (
	// Primary is a replica held by one of the k numerically closest nodes.
	Primary Kind = iota
	// DivertedIn is a replica held on behalf of another node (this node
	// is the B of a replica diversion A -> B).
	DivertedIn
)

func (k Kind) String() string {
	switch k {
	case Primary:
		return "primary"
	case DivertedIn:
		return "diverted-in"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// PtrRole classifies a pointer entry in the file table.
type PtrRole uint8

// Pointer roles.
const (
	// DivertedOut marks the entry node A keeps after diverting a replica
	// to node B: lookups reaching A follow the pointer to B.
	DivertedOut PtrRole = iota
	// Backup marks the entry the k+1-th closest node C keeps so that the
	// diverted replica on B survives the failure of A (section 3.3).
	Backup
)

func (r PtrRole) String() string {
	switch r {
	case DivertedOut:
		return "diverted-out"
	case Backup:
		return "backup"
	default:
		return fmt.Sprintf("PtrRole(%d)", uint8(r))
	}
}

// Entry is one locally held replica.
type Entry struct {
	File id.File
	Size int64
	Kind Kind
	// Owner is, for DivertedIn entries, the node that diverted the
	// replica here (the A of A -> B).
	Owner id.Node
	// Content is the replica payload; experiments run with nil content
	// and pure size accounting.
	Content []byte
	// Cert is the file certificate stored alongside the replica, when
	// certificate verification is enabled.
	Cert *cert.FileCertificate
}

// Pointer is a diverted-replica reference in the file table.
type Pointer struct {
	File   id.File
	Target id.Node // the node holding the replica (B)
	Size   int64
	Role   PtrRole
}

// Store is a node's local disk. It is not safe for concurrent use; the
// owning PAST node serializes access.
//
// The file table is split by what the garbage collector has to look at.
// Every replica's metadata lives in entries, whose keys and values hold
// no pointers, so the GC never scans it however many replicas a node
// holds; Content and Cert, the only pointer fields of an Entry, live in
// payloads and only for the entries that carry either. An emulated
// insert (size-only, no certificate) therefore allocates nothing here
// beyond map growth.
type Store struct {
	capacity int64
	used     int64
	entries  map[id.File]meta
	payloads map[id.File]payload
	pointers map[id.File]Pointer
}

// meta is the pointer-free part of an Entry.
type meta struct {
	size  int64
	owner id.Node
	kind  Kind
}

// payload is the part of an Entry that holds pointers.
type payload struct {
	content []byte
	cert    *cert.FileCertificate
}

// New creates a store advertising the given capacity in bytes.
func New(capacity int64) *Store {
	if capacity < 0 {
		panic("store: negative capacity")
	}
	return &Store{
		capacity: capacity,
		entries:  make(map[id.File]meta),
		payloads: make(map[id.File]payload),
		pointers: make(map[id.File]Pointer),
	}
}

// Capacity returns the advertised capacity in bytes.
func (s *Store) Capacity() int64 { return s.capacity }

// Used returns the bytes occupied by replicas (primary + diverted-in).
// Cached copies live in the remaining free space and are accounted by
// the cache, not the store.
func (s *Store) Used() int64 { return s.used }

// Free returns the remaining free space FN.
func (s *Store) Free() int64 { return s.capacity - s.used }

// Len returns the number of replicas held.
func (s *Store) Len() int { return len(s.entries) }

// Accepts is the paper's acceptance policy (section 3.3.1) for a file
// of the given size on a node with free bytes left: reject file D when
// SD/FN > t. Zero-sized files are always accepted; a full node rejects
// everything else. Every Backend's CanAccept is this test on its own
// free space.
func Accepts(size, free int64, t float64) bool {
	if size == 0 {
		return true
	}
	if size < 0 || free <= 0 {
		return false
	}
	return float64(size)/float64(free) <= t
}

// CanAccept applies the acceptance policy to this store's free space.
func (s *Store) CanAccept(size int64, t float64) bool { return Accepts(size, s.Free(), t) }

// Add stores a replica. It fails if the file is already held or space is
// insufficient; policy checks (CanAccept) are the caller's duty, since
// primary and diverted stores use different thresholds. The store keeps
// a copy of e.Content, as a disk would (the content may be a view of a
// received frame), and e.Cert itself.
func (s *Store) Add(e Entry) error {
	if _, dup := s.entries[e.File]; dup {
		return fmt.Errorf("store: %s already held", e.File.Short())
	}
	if e.Size < 0 {
		return fmt.Errorf("store: negative size %d", e.Size)
	}
	if e.Size > s.Free() {
		return fmt.Errorf("store: %s needs %d bytes, only %d free", e.File.Short(), e.Size, s.Free())
	}
	s.entries[e.File] = meta{size: e.Size, owner: e.Owner, kind: e.Kind}
	if e.Content != nil || e.Cert != nil {
		s.payloads[e.File] = payload{content: bytes.Clone(e.Content), cert: e.Cert}
	}
	s.used += e.Size
	return nil
}

// entry reassembles the Entry for f from its metadata and payload.
func (s *Store) entry(f id.File, m meta) Entry {
	p := s.payloads[f]
	return Entry{File: f, Size: m.size, Kind: m.kind, Owner: m.owner, Content: p.content, Cert: p.cert}
}

// Get returns the replica entry for f, if held.
func (s *Store) Get(f id.File) (Entry, bool) {
	m, ok := s.entries[f]
	if !ok {
		return Entry{}, false
	}
	return s.entry(f, m), true
}

// Stat returns the replica entry for f without its content, if held.
func (s *Store) Stat(f id.File) (Entry, bool) {
	e, ok := s.Get(f)
	e.Content = nil
	return e, ok
}

// Remove discards the replica of f and returns its metadata.
func (s *Store) Remove(f id.File) (Entry, bool) {
	m, ok := s.entries[f]
	if !ok {
		return Entry{}, false
	}
	e := s.entry(f, m)
	e.Content = nil
	delete(s.entries, f)
	delete(s.payloads, f)
	s.used -= m.size
	return e, true
}

// SetPointer records a diverted-replica reference. A file has at most
// one pointer per node; overwriting updates it.
func (s *Store) SetPointer(p Pointer) { s.pointers[p.File] = p }

// GetPointer returns the pointer entry for f, if any.
func (s *Store) GetPointer(f id.File) (Pointer, bool) {
	p, ok := s.pointers[f]
	return p, ok
}

// RemovePointer deletes the pointer entry for f.
func (s *Store) RemovePointer(f id.File) (Pointer, bool) {
	p, ok := s.pointers[f]
	if ok {
		delete(s.pointers, f)
	}
	return p, ok
}

// Entries returns all replica entries ordered by fileId, for
// deterministic maintenance scans. Content is nil; Get returns it.
func (s *Store) Entries() []Entry {
	out := make([]Entry, 0, len(s.entries))
	for f, m := range s.entries {
		e := s.entry(f, m)
		e.Content = nil
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b Entry) int { return bytes.Compare(a.File[:], b.File[:]) })
	return out
}

// Pointers returns all pointer entries ordered by fileId.
func (s *Store) Pointers() []Pointer {
	out := make([]Pointer, 0, len(s.pointers))
	for _, p := range s.pointers {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b Pointer) int { return bytes.Compare(a.File[:], b.File[:]) })
	return out
}

// Utilization returns used/capacity in [0, 1].
func (s *Store) Utilization() float64 {
	if s.capacity == 0 {
		return 0
	}
	return float64(s.used) / float64(s.capacity)
}
