// Package cert implements PAST's security artifacts (section 2.3 of the
// paper): smartcards holding a private/public key pair whose public key
// is signed by the card issuer, file certificates, store receipts,
// reclaim certificates and receipts, and the per-user storage quota the
// certificates enforce.
//
// The smartcard is simulated in software with ed25519 keys. The paper's
// trust assumptions carry over: certificates bind fileIds to content
// hashes and replication factors so storage nodes and clients can verify
// the integrity and authenticity of stored content, and receipts let a
// client verify that k diverse replicas were actually created.
package cert

import (
	"crypto/ed25519"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"past/internal/id"
)

// Errors returned by verification and quota operations.
var (
	ErrBadSignature   = errors.New("cert: bad signature")
	ErrBadIssuer      = errors.New("cert: card public key not signed by issuer")
	ErrContentHash    = errors.New("cert: content does not match certificate hash")
	ErrQuotaExceeded  = errors.New("cert: storage quota exceeded")
	ErrWrongOwner     = errors.New("cert: certificate owner mismatch")
	ErrBadReplication = errors.New("cert: replication factor out of range")
)

// Issuer is the smartcard issuer: the root of trust that signs card
// public keys.
type Issuer struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// NewIssuer creates an issuer with keys read from rng (use
// crypto/rand.Reader in production, a seeded reader in tests).
func NewIssuer(rng io.Reader) (*Issuer, error) {
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("cert: generate issuer key: %w", err)
	}
	return &Issuer{priv: priv, pub: pub}, nil
}

// PublicKey returns the issuer's verification key.
func (i *Issuer) PublicKey() ed25519.PublicKey { return i.pub }

// IssueCard creates a smartcard with a fresh key pair, a quota of quota
// bytes, and the issuer's signature over the card's public key.
func (i *Issuer) IssueCard(rng io.Reader, quota int64) (*Smartcard, error) {
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("cert: generate card key: %w", err)
	}
	return &Smartcard{
		priv:      priv,
		pub:       pub,
		issuerSig: ed25519.Sign(i.priv, pub),
		quota:     &Quota{limit: quota},
	}, nil
}

// Smartcard generates and verifies certificates and maintains the
// holder's storage quota.
type Smartcard struct {
	priv      ed25519.PrivateKey
	pub       ed25519.PublicKey
	issuerSig []byte
	quota     *Quota
}

// PublicKey returns the card's public key.
func (c *Smartcard) PublicKey() ed25519.PublicKey { return c.pub }

// NodeID derives the card holder's nodeId as the SHA-1 hash of the
// card's public key (section 2 of the paper).
func (c *Smartcard) NodeID() id.Node { return id.NodeFromPublicKey(c.pub) }

// Quota returns the card's quota ledger.
func (c *Smartcard) Quota() *Quota { return c.quota }

// ContentHash is the SHA-1 hash of file content stored in certificates.
func ContentHash(content []byte) [20]byte { return sha1.Sum(content) }

// FileCertificate binds a fileId to the content hash, replication
// factor, salt, creation date, and owner; it is signed by the owner's
// card (section 2.2).
type FileCertificate struct {
	FileID      id.File
	ContentHash [20]byte
	K           int
	Salt        uint64
	Created     int64 // owner-asserted creation time, unix seconds
	Owner       ed25519.PublicKey
	OwnerSig    []byte // issuer's signature over Owner
	Sig         []byte // owner's signature over the fields above
}

func (fc *FileCertificate) signingBytes() []byte {
	buf := make([]byte, 0, 64+len(fc.Owner))
	buf = append(buf, fc.FileID[:]...)
	buf = append(buf, fc.ContentHash[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(fc.K))
	buf = binary.BigEndian.AppendUint64(buf, fc.Salt)
	buf = binary.BigEndian.AppendUint64(buf, uint64(fc.Created))
	buf = append(buf, fc.Owner...)
	return buf
}

// IssueFileCert creates and signs a file certificate for content to be
// inserted under the given name with replication factor k, debiting
// size*k bytes against the card's quota. The fileId is the SHA-1 hash of
// the file name, the owner's public key, and the salt.
func (c *Smartcard) IssueFileCert(name string, content []byte, k int, salt uint64, created int64) (*FileCertificate, error) {
	if k < 1 {
		return nil, ErrBadReplication
	}
	if err := c.quota.Debit(int64(len(content)) * int64(k)); err != nil {
		return nil, err
	}
	fc := &FileCertificate{
		FileID:      id.NewFile(name, c.pub, salt),
		ContentHash: ContentHash(content),
		K:           k,
		Salt:        salt,
		Created:     created,
		Owner:       c.pub,
		OwnerSig:    c.issuerSig,
	}
	fc.Sig = ed25519.Sign(c.priv, fc.signingBytes())
	return fc, nil
}

// Verify checks the certificate chain (issuer signed the owner key, the
// owner signed the certificate) and that content matches the certified
// hash; nil content is checked like any other, so it passes only a
// certificate issued for empty content. Storage nodes run this before
// accepting responsibility for a replica, and clients on a lookup.
func (fc *FileCertificate) Verify(issuerPub ed25519.PublicKey, content []byte) error {
	if fc.K < 1 {
		return ErrBadReplication
	}
	if !ed25519.Verify(issuerPub, fc.Owner, fc.OwnerSig) {
		return ErrBadIssuer
	}
	if !ed25519.Verify(fc.Owner, fc.signingBytes(), fc.Sig) {
		return ErrBadSignature
	}
	if ContentHash(content) != fc.ContentHash {
		return ErrContentHash
	}
	return nil
}

// StoreReceipt is issued by each node that accepts responsibility for a
// replica; the client verifies k receipts to confirm the requested
// number of copies exists.
type StoreReceipt struct {
	FileID id.File
	Node   id.Node
	Sig    []byte
}

func storeReceiptBytes(f id.File, n id.Node) []byte {
	buf := make([]byte, 0, len(f)+len(n)+2)
	buf = append(buf, 'S', 'R')
	buf = append(buf, f[:]...)
	buf = append(buf, n[:]...)
	return buf
}

// IssueStoreReceipt signs a receipt confirming this card's node stores a
// replica of the file.
func (c *Smartcard) IssueStoreReceipt(f id.File) *StoreReceipt {
	n := c.NodeID()
	return &StoreReceipt{FileID: f, Node: n, Sig: ed25519.Sign(c.priv, storeReceiptBytes(f, n))}
}

// Verify checks the receipt against the storing node's public key.
func (r *StoreReceipt) Verify(nodePub ed25519.PublicKey) error {
	if id.NodeFromPublicKey(nodePub) != r.Node {
		return ErrWrongOwner
	}
	if !ed25519.Verify(nodePub, storeReceiptBytes(r.FileID, r.Node), r.Sig) {
		return ErrBadSignature
	}
	return nil
}

// ReclaimCertificate authorizes reclaiming the storage of a file; nodes
// verify that the file's legitimate owner requested the operation.
type ReclaimCertificate struct {
	FileID   id.File
	Owner    ed25519.PublicKey
	OwnerSig []byte
	Sig      []byte
}

func reclaimBytes(f id.File, owner ed25519.PublicKey) []byte {
	buf := make([]byte, 0, len(f)+len(owner)+2)
	buf = append(buf, 'R', 'C')
	buf = append(buf, f[:]...)
	buf = append(buf, owner...)
	return buf
}

// IssueReclaimCert creates a signed reclaim certificate for fileId f.
func (c *Smartcard) IssueReclaimCert(f id.File) *ReclaimCertificate {
	return &ReclaimCertificate{
		FileID:   f,
		Owner:    c.pub,
		OwnerSig: c.issuerSig,
		Sig:      ed25519.Sign(c.priv, reclaimBytes(f, c.pub)),
	}
}

// Verify checks the reclaim certificate chain and that it was issued by
// the owner recorded in the file certificate.
func (rc *ReclaimCertificate) Verify(issuerPub ed25519.PublicKey, fileCert *FileCertificate) error {
	if !ed25519.Verify(issuerPub, rc.Owner, rc.OwnerSig) {
		return ErrBadIssuer
	}
	if !ed25519.Verify(rc.Owner, reclaimBytes(rc.FileID, rc.Owner), rc.Sig) {
		return ErrBadSignature
	}
	if fileCert != nil && !fileCert.Owner.Equal(rc.Owner) {
		return ErrWrongOwner
	}
	return nil
}

// ReclaimReceipt is returned by a storing node after it discards its
// replica; the client verifies it for a quota credit.
type ReclaimReceipt struct {
	FileID id.File
	Node   id.Node
	Size   int64
	Sig    []byte
}

func reclaimReceiptBytes(f id.File, n id.Node, size int64) []byte {
	buf := make([]byte, 0, len(f)+len(n)+10)
	buf = append(buf, 'R', 'R')
	buf = append(buf, f[:]...)
	buf = append(buf, n[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(size))
	return buf
}

// IssueReclaimReceipt signs a receipt for a discarded replica of the
// given size.
func (c *Smartcard) IssueReclaimReceipt(f id.File, size int64) *ReclaimReceipt {
	n := c.NodeID()
	return &ReclaimReceipt{FileID: f, Node: n, Size: size,
		Sig: ed25519.Sign(c.priv, reclaimReceiptBytes(f, n, size))}
}

// Verify checks the receipt against the storing node's public key.
func (r *ReclaimReceipt) Verify(nodePub ed25519.PublicKey) error {
	if id.NodeFromPublicKey(nodePub) != r.Node {
		return ErrWrongOwner
	}
	if !ed25519.Verify(nodePub, reclaimReceiptBytes(r.FileID, r.Node, r.Size), r.Sig) {
		return ErrBadSignature
	}
	return nil
}

// Quota is the storage ledger a smartcard maintains: demand for storage
// can never exceed what the holder is entitled to, which is PAST's
// defense against storage exhaustion (section 3.5).
type Quota struct {
	limit int64
	used  int64
}

// Debit reserves n bytes, failing with ErrQuotaExceeded if the limit
// would be crossed.
func (q *Quota) Debit(n int64) error {
	if n < 0 {
		return fmt.Errorf("cert: negative debit %d", n)
	}
	if q.used+n > q.limit {
		return fmt.Errorf("%w: used %d + %d > limit %d", ErrQuotaExceeded, q.used, n, q.limit)
	}
	q.used += n
	return nil
}

// Credit releases n bytes (after a verified reclaim).
func (q *Quota) Credit(n int64) {
	q.used -= n
	if q.used < 0 {
		q.used = 0
	}
}

// Used returns the bytes currently debited.
func (q *Quota) Used() int64 { return q.used }
