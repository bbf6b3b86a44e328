package store

import "past/internal/id"

// Backend is the storage interface a PAST node drives. The in-memory
// Store is the default (and what the trace experiments use);
// logstore.Store persists replica contents and file-table metadata
// under a directory so a node's disk survives process restarts, which
// is what the paper's recovery path assumes ("a recovering node ...
// whose disk contents were lost" being the exceptional case).
type Backend interface {
	// Capacity returns the advertised capacity in bytes.
	Capacity() int64
	// Used returns bytes occupied by replicas.
	Used() int64
	// Free returns remaining free space FN.
	Free() int64
	// Len returns the number of replicas held.
	Len() int
	// Utilization returns Used/Capacity in [0, 1].
	Utilization() float64
	// CanAccept applies the SD/FN acceptance policy.
	CanAccept(size int64, t float64) bool
	// Add stores a replica. The backend keeps e.Content's bytes, never
	// the slice: a caller may pass a view of a buffer it reuses.
	Add(e Entry) error
	// Get returns the replica entry for f, with content if stored.
	Get(f id.File) (Entry, bool)
	// Stat returns the replica entry for f without its content (nil, as
	// in Entries): an existence or metadata check reads no payload.
	Stat(f id.File) (Entry, bool)
	// Remove discards the replica of f and returns its metadata
	// (Content nil, as in Entries).
	Remove(f id.File) (Entry, bool)
	// SetPointer records a diverted-replica reference.
	SetPointer(p Pointer)
	// GetPointer returns the pointer entry for f.
	GetPointer(f id.File) (Pointer, bool)
	// RemovePointer deletes the pointer entry for f.
	RemovePointer(f id.File) (Pointer, bool)
	// Entries returns the metadata of all replica entries ordered by
	// fileId. Content is nil on every backend, so a scan never reads or
	// pins payloads; Get returns one entry's content.
	Entries() []Entry
	// Pointers returns all pointer entries ordered by fileId.
	Pointers() []Pointer
}

var _ Backend = (*Store)(nil)
