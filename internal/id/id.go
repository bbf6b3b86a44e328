// Package id implements the identifier algebra used by Pastry and PAST.
//
// Pastry assigns every node a 128-bit nodeId that names a position on a
// circular namespace ranging from 0 to 2^128-1. PAST assigns every file a
// 160-bit fileId; replicas of a file are stored on the k nodes whose
// nodeIds are numerically closest to the 128 most significant bits of the
// fileId. For routing, identifiers are interpreted as sequences of digits
// with base 2^b.
//
// The package provides the arithmetic the rest of the system is built on:
// big-endian comparison, circular (ring) distance, digit extraction, and
// shared-prefix length, plus the SHA-1 derivations the paper specifies for
// nodeIds (hash of the node's public key) and fileIds (hash of file name,
// owner public key, and a random salt).
package id

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
)

// NodeBytes and FileBytes are the identifier widths, in bytes.
const (
	NodeBytes = 16 // 128-bit nodeIds
	FileBytes = 20 // 160-bit fileIds
)

// Node is a 128-bit Pastry node identifier. The zero value is the
// identifier 0; Node values are comparable and usable as map keys.
type Node [NodeBytes]byte

// File is a 160-bit PAST file identifier.
type File [FileBytes]byte

// NodeFromPublicKey derives a nodeId as the SHA-1 hash of the node's
// public key, truncated to 128 bits, per section 2 of the paper. The
// quasi-random assignment guarantees no correlation between nodeId value
// and the node's location, connectivity, ownership, or jurisdiction.
func NodeFromPublicKey(pub []byte) Node {
	sum := sha1.Sum(pub)
	var n Node
	copy(n[:], sum[:NodeBytes])
	return n
}

// NodeFromUint64 builds a nodeId whose low 64 bits are v. Intended for
// tests and deterministic examples.
func NodeFromUint64(v uint64) Node {
	var n Node
	binary.BigEndian.PutUint64(n[8:], v)
	return n
}

// NodeFromHalves builds a nodeId from its high and low 64-bit halves.
func NodeFromHalves(hi, lo uint64) Node {
	var n Node
	binary.BigEndian.PutUint64(n[:8], hi)
	binary.BigEndian.PutUint64(n[8:], lo)
	return n
}

// Halves returns the big-endian 64-bit halves of n.
func (n Node) Halves() (hi, lo uint64) {
	return binary.BigEndian.Uint64(n[:8]), binary.BigEndian.Uint64(n[8:])
}

// String renders the nodeId as 32 lowercase hex digits.
func (n Node) String() string { return hex.EncodeToString(n[:]) }

// Short renders the leading 8 hex digits, for logs.
func (n Node) Short() string { return hex.EncodeToString(n[:4]) }

// Cmp compares two nodeIds as unsigned big-endian integers, returning
// -1, 0, or +1.
func (n Node) Cmp(o Node) int {
	switch {
	case n.Less(o):
		return -1
	case o.Less(n):
		return 1
	}
	return 0
}

// Less reports whether n < o as unsigned big-endian integers.
func (n Node) Less(o Node) bool {
	nh, nl := n.Halves()
	oh, ol := o.Halves()
	return less128(nh, nl, oh, ol)
}

// IsZero reports whether n is the all-zero identifier.
func (n Node) IsZero() bool { return n == Node{} }

func less128(ah, al, bh, bl uint64) bool {
	return ah < bh || ah == bh && al < bl
}

// Dist is a distance between two ids, 0 to 2^128-1, as two machine
// words. CWDist and RingDist pack the same values into a Node; code
// that computes and compares many distances (the leaf-set walk) uses
// Dist, which stays in registers.
type Dist struct{ Hi, Lo uint64 }

// Less reports whether d < o.
func (d Dist) Less(o Dist) bool { return less128(d.Hi, d.Lo, o.Hi, o.Lo) }

// DistCW returns the clockwise distance from n to o on the ring, i.e.
// (o - n) mod 2^128.
func (n Node) DistCW(o Node) Dist {
	nh, nl := n.Halves()
	oh, ol := o.Halves()
	lo, borrow := bits.Sub64(ol, nl, 0)
	hi, _ := bits.Sub64(oh, nh, borrow)
	return Dist{hi, lo}
}

// DistRing returns the circular (numerical) distance between n and o:
// min((n-o) mod 2^128, (o-n) mod 2^128). This is the metric "numerically
// closest" refers to throughout the paper.
func (n Node) DistRing(o Node) Dist {
	d := n.DistCW(o)
	if d.Hi>>63 != 0 { // past half way (2^127 is its own negation): the other way round is shorter
		lo, borrow := bits.Sub64(0, d.Lo, 0)
		hi, _ := bits.Sub64(0, d.Hi, borrow)
		d = Dist{hi, lo}
	}
	return d
}

// RingDist is DistRing with the result packed into a Node.
func (n Node) RingDist(o Node) Node {
	d := n.DistRing(o)
	return NodeFromHalves(d.Hi, d.Lo)
}

// Closer reports whether a is strictly nearer to n than b is, under ring
// distance, breaking ties by smaller identifier so that orderings are
// total and deterministic.
func (n Node) Closer(a, b Node) bool {
	if da, db := n.DistRing(a), n.DistRing(b); da != db {
		return da.Less(db)
	}
	return a.Less(b)
}

// Digit returns the i-th base-2^b digit of n, counting from the most
// significant digit (digit 0). b must be 1, 2, 4, or 8.
func (n Node) Digit(i, b int) int {
	checkBase(b)
	perByte := 8 / b
	byteIdx := i / perByte
	within := i % perByte
	shift := uint(8 - b*(within+1))
	mask := byte(1<<b - 1)
	return int(n[byteIdx] >> shift & mask)
}

// NumDigits returns the number of base-2^b digits in a 128-bit id.
func NumDigits(b int) int {
	checkBase(b)
	return 128 / b
}

// SharedPrefix returns the number of leading base-2^b digits n and o have
// in common.
func (n Node) SharedPrefix(o Node, b int) int {
	checkBase(b)
	total := NumDigits(b)
	for i := 0; i < NodeBytes; i++ {
		if x := n[i] ^ o[i]; x != 0 {
			// Leading zero bits within this byte, truncated to whole digits.
			zeroBits := bits.LeadingZeros8(x)
			d := (i*8 + zeroBits) / b
			if d > total {
				d = total
			}
			return d
		}
	}
	return total
}

func checkBase(b int) {
	switch b {
	case 1, 2, 4, 8:
	default:
		panic(fmt.Sprintf("id: unsupported digit base 2^%d (b must be 1, 2, 4, or 8)", b))
	}
}

// NewFile computes a fileId as the SHA-1 hash of the file's textual name,
// the owner's public key, and a salt, per section 2.2 of the paper.
// Re-salting with a fresh value yields a new fileId for the same file;
// PAST's file diversion relies on this.
func NewFile(name string, ownerPub []byte, salt uint64) File {
	h := sha1.New()
	h.Write([]byte(name))
	h.Write(ownerPub)
	var sb [8]byte
	binary.BigEndian.PutUint64(sb[:], salt)
	h.Write(sb[:])
	var f File
	h.Sum(f[:0])
	return f
}

// ParseFile parses a 40-hex-digit fileId.
func ParseFile(s string) (File, error) {
	var f File
	err := parseHex("file", s, f[:])
	return f, err
}

// parseHex decodes s, which must be exactly 2*len(dst) hex digits, into
// dst; what names the id kind in errors. dst is untouched on error.
func parseHex(what, s string, dst []byte) error {
	b, err := hex.DecodeString(s)
	if err != nil {
		return fmt.Errorf("id: parse %s %q: %w", what, s, err)
	}
	if len(b) != len(dst) {
		return fmt.Errorf("id: parse %s %q: want %d bytes, got %d", what, s, len(dst), len(b))
	}
	copy(dst, b)
	return nil
}

// String renders the fileId as 40 lowercase hex digits.
func (f File) String() string { return hex.EncodeToString(f[:]) }

// Short renders the leading 8 hex digits, for logs.
func (f File) Short() string { return hex.EncodeToString(f[:4]) }

// Key returns the 128 most significant bits of the fileId, the value that
// Pastry routes on and that replica placement is defined against.
func (f File) Key() Node {
	var n Node
	copy(n[:], f[:NodeBytes])
	return n
}

// IsZero reports whether f is the all-zero identifier.
func (f File) IsZero() bool { return f == File{} }
