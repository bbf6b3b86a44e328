// Package frag stripes large files over PAST — the recourse the paper
// prescribes for failed inserts ("an application may choose to retry
// the operation with a smaller file size, e.g. by fragmenting the file,
// and/or a smaller number of replicas", section 3.4).
//
// A large file is split into fragments, each inserted as an independent
// PAST file; a manifest recording the fragment fileIds and the SHA-1 of
// the whole object is inserted last and its fileId identifies the
// object. All fragments are needed to reassemble it.
//
// Because each fragment has its own fileId, fragments scatter uniformly
// over the nodeId space, so a file too large for any single node's
// acceptance policy can still be stored at high global utilization, and
// retrieval parallelizes across nodes (the striping benefit the paper
// notes).
//
// This package does no coding of its own. A fragment is an ordinary
// PAST file, so it carries whatever redundancy the cluster stores files
// with: k replicas, or — on a cluster running Config.ECMode, the
// section 3.6 file encoding (internal/ec) — m data plus n parity
// fragments, each with a CRC32-C in a versioned fragment map and
// re-created by lazy repair when lost.
package frag

import (
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"

	"past/internal/id"
	"past/internal/past"
)

// Errors returned by the fragment store.
var (
	ErrManifest   = errors.New("frag: malformed manifest")
	ErrFragment   = errors.New("frag: fragment unavailable or corrupt")
	ErrInsert     = errors.New("frag: fragment insertion failed")
	ErrBadOptions = errors.New("frag: invalid options")
)

// Options configures a Store.
type Options struct {
	// FragmentSize is the maximum fragment payload (default 64 KiB).
	// Fragments and the manifest are replicated at the node's k.
	FragmentSize int
}

// Store fragments and reassembles files through a PAST access point.
type Store struct {
	node *past.Node
	opt  Options
}

// NewStore creates a fragment store over the given access point.
func NewStore(node *past.Node, opt Options) (*Store, error) {
	if opt.FragmentSize == 0 {
		opt.FragmentSize = 64 << 10
	}
	if opt.FragmentSize < 1 {
		return nil, fmt.Errorf("%w: fragment size %d", ErrBadOptions, opt.FragmentSize)
	}
	return &Store{node: node, opt: opt}, nil
}

// manifest is the metadata object stored in PAST under the object's
// name; its fileId identifies the whole fragmented object.
type manifest struct {
	Size    int64 // original file size
	Sum     [20]byte
	FragIDs []id.File
}

const manifestMagic = "PASTFRAG3"

func (m *manifest) encode() []byte {
	var b bytes.Buffer
	b.WriteString(manifestMagic)
	binary.Write(&b, binary.BigEndian, m.Size)
	b.Write(m.Sum[:])
	binary.Write(&b, binary.BigEndian, int32(len(m.FragIDs)))
	for _, f := range m.FragIDs {
		b.Write(f[:])
	}
	return b.Bytes()
}

func decodeManifest(raw []byte) (*manifest, error) {
	r := bytes.NewReader(raw)
	magic := make([]byte, len(manifestMagic))
	if _, err := r.Read(magic); err != nil || string(magic) != manifestMagic {
		return nil, ErrManifest
	}
	var m manifest
	if err := binary.Read(r, binary.BigEndian, &m.Size); err != nil {
		return nil, ErrManifest
	}
	if _, err := r.Read(m.Sum[:]); err != nil {
		return nil, ErrManifest
	}
	var n int32
	if err := binary.Read(r, binary.BigEndian, &n); err != nil || n < 0 || int(n) > r.Len()/id.FileBytes {
		return nil, ErrManifest
	}
	m.FragIDs = make([]id.File, n)
	for i := range m.FragIDs {
		if _, err := r.Read(m.FragIDs[i][:]); err != nil {
			return nil, ErrManifest
		}
	}
	return &m, nil
}

// Result reports a fragmented insertion.
type Result struct {
	// ManifestID retrieves the object.
	ManifestID id.File
	// Fragments is the number of fragment files inserted.
	Fragments int
}

// Insert fragments content and stores it under name. The returned
// manifest id retrieves the object with Fetch.
func (s *Store) Insert(name string, content []byte) (*Result, error) {
	if len(content) == 0 {
		return nil, fmt.Errorf("%w: empty content", ErrBadOptions)
	}
	m := &manifest{Size: int64(len(content)), Sum: sha1.Sum(content)}
	for off, i := 0, 0; off < len(content); off, i = off+s.opt.FragmentSize, i+1 {
		f := content[off:min(off+s.opt.FragmentSize, len(content))]
		ins, err := s.node.Insert(past.InsertSpec{
			Name:    fmt.Sprintf("%s#frag%d", name, i),
			Content: f,
		})
		if err != nil {
			return nil, err
		}
		if !ins.OK {
			return nil, fmt.Errorf("%w: fragment %d: %s", ErrInsert, i, ins.Reason)
		}
		m.FragIDs = append(m.FragIDs, ins.FileID)
	}

	man, err := s.node.Insert(past.InsertSpec{Name: name, Content: m.encode()})
	if err != nil {
		return nil, err
	}
	if !man.OK {
		return nil, fmt.Errorf("%w: manifest: %s", ErrInsert, man.Reason)
	}
	return &Result{ManifestID: man.FileID, Fragments: len(m.FragIDs)}, nil
}

// Fetch retrieves and reassembles the object behind a manifest id,
// checking the whole object against the manifest's SHA-1.
func (s *Store) Fetch(manifestID id.File) ([]byte, error) {
	m, err := s.manifest(manifestID)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, m.Size)
	for i, fid := range m.FragIDs {
		fr, err := s.node.Lookup(fid)
		if err != nil {
			return nil, err
		}
		if !fr.Found {
			return nil, fmt.Errorf("%w: fragment %d (%s)", ErrFragment, i, fid.Short())
		}
		out = append(out, fr.Content...)
	}
	if int64(len(out)) != m.Size {
		return nil, fmt.Errorf("%w: reassembled %d of %d bytes", ErrFragment, len(out), m.Size)
	}
	if sha1.Sum(out) != m.Sum {
		return nil, fmt.Errorf("%w: content hash mismatch", ErrFragment)
	}
	return out, nil
}

// manifest looks up and decodes the manifest behind manifestID.
func (s *Store) manifest(manifestID id.File) (*manifest, error) {
	lk, err := s.node.Lookup(manifestID)
	if err != nil {
		return nil, err
	}
	if !lk.Found {
		return nil, fmt.Errorf("%w: manifest %s not found", ErrManifest, manifestID.Short())
	}
	return decodeManifest(lk.Content)
}
