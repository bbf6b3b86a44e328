// Package rs implements Reed-Solomon erasure coding over GF(2^8),
// the file encoding the paper sketches in section 3.6: adding m
// checksum (parity) blocks to n data blocks of equal size allows
// recovery from up to m block losses, reducing the storage overhead for
// tolerating m failures from m+1 copies to (m+n)/n times the file size.
//
// The implementation is the classic systematic construction: a
// Vandermonde matrix normalized so its top n rows are the identity, data
// shards pass through unchanged, and any n surviving shards reconstruct
// the rest by inverting the corresponding submatrix.
package rs

import (
	"errors"
	"fmt"
)

// Arithmetic over GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1 (0x11b
// is common too; we use 0x11d, the polynomial standard in storage RS).
var (
	expTable [512]byte
	logTable [256]byte
	// mulTable[a][b] = a*b over GF(2^8). mulRow's inner loop indexes the
	// rows mulTable[coef] of up to four coefficients at once: no zero
	// tests, no log/exp index arithmetic.
	mulTable [256][256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		expTable[i] = x
		logTable[x] = byte(i)
		// multiply x by the generator 2 modulo 0x11d
		x2 := x << 1
		if x&0x80 != 0 {
			x2 ^= 0x1d
		}
		x = x2
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			mulTable[a][b] = expTable[int(logTable[a])+int(logTable[b])]
		}
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("rs: division by zero in GF(2^8)")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

func gfInv(a byte) byte { return gfDiv(1, a) }

func gfExp(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	l := (int(logTable[a]) * n) % 255
	if l < 0 {
		l += 255
	}
	return expTable[l]
}

// Errors returned by the encoder.
var (
	ErrInvalidShards = errors.New("rs: invalid shard configuration")
	ErrTooFewShards  = errors.New("rs: too few shards to reconstruct")
	ErrShardSize     = errors.New("rs: shards must be non-empty and of equal size")
)

// Encoder encodes data into dataShards+parityShards shards and
// reconstructs missing shards from any dataShards survivors. It is
// immutable once New returns, so one Encoder is safe for concurrent use
// by any number of goroutines (each call working on its own shards).
type Encoder struct {
	dataShards   int
	parityShards int
	// m is the (dataShards+parityShards) x dataShards systematic coding
	// matrix: the top dataShards rows are the identity.
	m [][]byte
}

// New creates an encoder with the given shard counts. dataShards +
// parityShards must be at most 255.
func New(dataShards, parityShards int) (*Encoder, error) {
	if dataShards <= 0 || parityShards <= 0 || dataShards+parityShards > 255 {
		return nil, fmt.Errorf("%w: %d data + %d parity", ErrInvalidShards, dataShards, parityShards)
	}
	total := dataShards + parityShards
	// Vandermonde matrix: v[r][c] = r^c.
	v := make([][]byte, total)
	for r := range v {
		v[r] = make([]byte, dataShards)
		for c := 0; c < dataShards; c++ {
			v[r][c] = gfExp(byte(r+1), c)
		}
	}
	// Normalize so the top dataShards x dataShards block is the identity:
	// multiply by the inverse of the top block.
	top := make([][]byte, dataShards)
	for i := range top {
		top[i] = append([]byte(nil), v[i]...)
	}
	inv, err := invert(top)
	if err != nil {
		return nil, fmt.Errorf("rs: building coding matrix: %w", err)
	}
	m := matMul(v, inv)
	return &Encoder{dataShards: dataShards, parityShards: parityShards, m: m}, nil
}

// TotalShards returns dataShards+parityShards.
func (e *Encoder) TotalShards() int { return e.dataShards + e.parityShards }

// mulRow sets out[i] = coefs[0]*srcs[0][i] ^ coefs[1]*srcs[1][i] ^ ...
// over GF(2^8): one row of a coding or decoding matrix applied to its
// source shards. Each pass folds up to four sources into out, so out is
// written once per four sources instead of once per source, and the
// first pass stores rather than accumulating, so out needs no clearing.
// A pass short of four sources is padded with coefficient 0, whose
// table row is all zeros. Every source must be at least len(out) long.
func mulRow(out, coefs []byte, srcs [][]byte) {
	for j := 0; j < len(coefs); j += 4 {
		var t [4]*[256]byte
		var s [4][]byte
		for k := range t {
			t[k], s[k] = &mulTable[0], srcs[j]
			if j+k < len(coefs) {
				t[k], s[k] = &mulTable[coefs[j+k]], srcs[j+k]
			}
		}
		mulAdd4(out, j > 0, &t, &s)
	}
}

// mulAdd4 is the coder's only inner loop: out[i] (^)= t0[s0[i]] ^
// t1[s1[i]] ^ t2[s2[i]] ^ t3[s3[i]], accumulating into out when acc is
// set and overwriting it otherwise. It is kept out of line so that its
// eleven live values stay in registers; inlined into mulRow the loop
// counter spills to the stack.
//
//go:noinline
func mulAdd4(out []byte, acc bool, t *[4]*[256]byte, s *[4][]byte) {
	t0, t1, t2, t3 := t[0], t[1], t[2], t[3]
	// Reslicing to len(out) lets the compiler drop the bounds checks.
	s0, s1, s2, s3 := s[0][:len(out)], s[1][:len(out)], s[2][:len(out)], s[3][:len(out)]
	if acc {
		for i := range out {
			out[i] ^= t0[s0[i]] ^ t1[s1[i]] ^ t2[s2[i]] ^ t3[s3[i]]
		}
		return
	}
	for i := range out {
		out[i] = t0[s0[i]] ^ t1[s1[i]] ^ t2[s2[i]] ^ t3[s3[i]]
	}
}

// Split cuts data into dataShards equal shards and leaves room for the
// parity, so Encode can be called on the returned slice. The data
// shards that data fills completely ALIAS it (capacity clipped, so an
// append cannot run into the next shard); only the parity shards and
// the zero-padded tail of the data are allocated, as one slab. data
// must therefore not be modified for as long as the shards are in use —
// the rule inserted content lives under anyway.
func (e *Encoder) Split(data []byte) ([][]byte, error) {
	if len(data) == 0 {
		return nil, ErrShardSize
	}
	per := (len(data) + e.dataShards - 1) / e.dataShards
	full := len(data) / per // data shards that need no padding
	shards := make([][]byte, e.TotalShards())
	for i := 0; i < full; i++ {
		shards[i] = data[i*per : (i+1)*per : (i+1)*per]
	}
	slab := make([]byte, (len(shards)-full)*per)
	copy(slab, data[full*per:])
	for i := full; i < len(shards); i++ {
		shards[i], slab = slab[:per:per], slab[per:]
	}
	return shards, nil
}

// Join concatenates the data shards and truncates to size.
func (e *Encoder) Join(shards [][]byte, size int) ([]byte, error) {
	if len(shards) < e.dataShards {
		return nil, ErrTooFewShards
	}
	have := 0
	for i := 0; i < e.dataShards; i++ {
		if shards[i] == nil {
			return nil, fmt.Errorf("%w: data shard %d missing (reconstruct first)", ErrTooFewShards, i)
		}
		have += len(shards[i])
	}
	if size < 0 || size > have {
		return nil, fmt.Errorf("rs: join size %d outside shard data [0, %d]", size, have)
	}
	out := make([]byte, 0, size)
	for i := 0; i < e.dataShards && len(out) < size; i++ {
		out = append(out, shards[i][:min(len(shards[i]), size-len(out))]...)
	}
	return out, nil
}

// Encode computes the parity shards from the data shards. It writes the
// parity shards only; a data shard may alias memory the caller does not
// own (see Split).
func (e *Encoder) Encode(shards [][]byte) error {
	if err := e.checkShards(shards, false); err != nil {
		return err
	}
	for p := e.dataShards; p < len(shards); p++ {
		mulRow(shards[p], e.m[p], shards[:e.dataShards])
	}
	return nil
}

// survivors picks the first dataShards present shards, skipping index
// skip (-1 for none), and returns them with the inverse of their rows
// of the coding matrix: data = dec * survivors.
func (e *Encoder) survivors(shards [][]byte, skip int) (dec, sub [][]byte, err error) {
	rows := make([][]byte, 0, e.dataShards)
	sub = make([][]byte, 0, e.dataShards)
	for i := 0; i < len(shards) && len(sub) < e.dataShards; i++ {
		if i != skip && shards[i] != nil {
			rows = append(rows, append([]byte(nil), e.m[i]...))
			sub = append(sub, shards[i])
		}
	}
	if len(sub) < e.dataShards {
		return nil, nil, fmt.Errorf("%w: %d usable of %d, need %d", ErrTooFewShards, len(sub), len(shards), e.dataShards)
	}
	if dec, err = invert(rows); err != nil {
		return nil, nil, fmt.Errorf("rs: reconstruct: %w", err)
	}
	return dec, sub, nil
}

// Reconstruct rebuilds missing shards (nil entries) in place. It needs
// at least dataShards present shards.
func (e *Encoder) Reconstruct(shards [][]byte) error {
	if err := e.checkShards(shards, true); err != nil {
		return err
	}
	missing := 0
	for _, s := range shards {
		if s == nil {
			missing++
		}
	}
	if missing == 0 {
		return nil
	}
	dec, sub, err := e.survivors(shards, -1)
	if err != nil {
		return err
	}
	per := len(sub[0])
	slab := make([]byte, missing*per)
	for i := range shards {
		if shards[i] != nil {
			continue
		}
		var out []byte
		out, slab = slab[:per:per], slab[per:]
		if i < e.dataShards {
			mulRow(out, dec[i], sub) // a row of the decoder over the survivors
		} else {
			mulRow(out, e.m[i], shards[:e.dataShards]) // data is complete by now
		}
		shards[i] = out
	}
	return nil
}

// ReconstructInto rebuilds ONLY shard idx from any dataShards present
// shards, writing the result into dst (which must be shard-sized).
// Unlike Reconstruct it never materializes the other missing shards:
// the target shard — data or parity — is a single matrix row applied
// to the survivors, which is what a fragment repair wants (re-create
// one lost fragment from m survivors without decoding the whole file).
// shards[idx] is ignored; it may be nil or stale.
func (e *Encoder) ReconstructInto(shards [][]byte, idx int, dst []byte) error {
	if err := e.checkShards(shards, true); err != nil {
		return err
	}
	if idx < 0 || idx >= e.TotalShards() {
		return fmt.Errorf("%w: shard index %d of %d", ErrInvalidShards, idx, e.TotalShards())
	}
	dec, sub, err := e.survivors(shards, idx)
	if err != nil {
		return err
	}
	if len(dst) != len(sub[0]) {
		return fmt.Errorf("%w: dst is %d bytes, shards are %d", ErrShardSize, len(dst), len(sub[0]))
	}
	// Coefficient row of the target shard over the survivors: for a data
	// shard it is a row of the decoder; for a parity shard, the parity's
	// coding row composed with the decoder.
	var coefs []byte
	if idx < e.dataShards {
		coefs = dec[idx]
	} else {
		coefs = matMul(e.m[idx:idx+1], dec)[0]
	}
	mulRow(dst, coefs, sub)
	return nil
}

// checkShards validates shard count and sizes. allowNil permits missing
// shards (for Reconstruct).
func (e *Encoder) checkShards(shards [][]byte, allowNil bool) error {
	if len(shards) != e.TotalShards() {
		return fmt.Errorf("%w: got %d shards, want %d", ErrInvalidShards, len(shards), e.TotalShards())
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			if !allowNil {
				return fmt.Errorf("%w: shard %d is nil", ErrShardSize, i)
			}
			continue
		}
		if len(s) == 0 {
			return ErrShardSize
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return ErrShardSize
		}
	}
	if size == -1 {
		return ErrTooFewShards
	}
	return nil
}

// matMul multiplies a (r x n) by b (n x n).
func matMul(a, b [][]byte) [][]byte {
	rows := len(a)
	n := len(b)
	out := make([][]byte, rows)
	for r := 0; r < rows; r++ {
		out[r] = make([]byte, n)
		for c := 0; c < n; c++ {
			var acc byte
			for k := 0; k < n; k++ {
				acc ^= gfMul(a[r][k], b[k][c])
			}
			out[r][c] = acc
		}
	}
	return out
}

// invert inverts a square matrix over GF(2^8) by Gauss-Jordan
// elimination. The input is clobbered.
func invert(m [][]byte) ([][]byte, error) {
	n := len(m)
	inv := make([][]byte, n)
	for i := range inv {
		inv[i] = make([]byte, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if m[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, errors.New("singular matrix")
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		// Scale pivot row to 1.
		if p := m[col][col]; p != 1 {
			pi := gfInv(p)
			for c := 0; c < n; c++ {
				m[col][c] = gfMul(m[col][c], pi)
				inv[col][c] = gfMul(inv[col][c], pi)
			}
		}
		// Eliminate other rows.
		for r := 0; r < n; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col]
			for c := 0; c < n; c++ {
				m[r][c] ^= gfMul(f, m[col][c])
				inv[r][c] ^= gfMul(f, inv[col][c])
			}
		}
	}
	return inv, nil
}
