package rs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The coder has one inner loop, mulRow; these tests hold it to a
// reference that shares none of its code: a byte-at-a-time
// multiply-accumulate through the log/exp tables, which is what Encode,
// Verify and Reconstruct each spelled out before they were fused.

// refRow is the reference for mulRow.
func refRow(coefs []byte, srcs [][]byte, n int) []byte {
	out := make([]byte, n)
	for c, coef := range coefs {
		for i := range out {
			out[i] ^= gfMul(coef, srcs[c][i])
		}
	}
	return out
}

// refEncode splits data by copying (as Split used to) and computes the
// parity with refRow: the full shard set any survivor subset must
// reconstruct.
func refEncode(e *Encoder, data []byte) [][]byte {
	per := (len(data) + e.dataShards - 1) / e.dataShards
	shards := make([][]byte, e.TotalShards())
	for d := 0; d < e.dataShards; d++ {
		shards[d] = make([]byte, per)
		if lo := d * per; lo < len(data) {
			copy(shards[d], data[lo:])
		}
	}
	for p := e.dataShards; p < len(shards); p++ {
		shards[p] = refRow(e.m[p], shards[:e.dataShards], per)
	}
	return shards
}

// oracleConfigs is the parameter sets the tree uses plus seeded random
// ones up to (8, 4).
func oracleConfigs() [][2]int {
	cfgs := [][2]int{{1, 1}, {1, 2}, {3, 2}, {4, 2}, {8, 4}}
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 4; i++ {
		cfgs = append(cfgs, [2]int{1 + r.Intn(8), 1 + r.Intn(4)})
	}
	return cfgs
}

func oracleLengths(m int) []int {
	lens := []int{1, m, m + 1, 4095, 4096, 4097, 64<<10 + 3}
	if m > 1 {
		lens = append(lens, m-1)
	}
	return lens
}

// lossPatterns calls f with every set of 1..max lost indices out of
// total, as a bitmask.
func lossPatterns(total, max int, f func(mask uint)) {
	for mask := uint(1); mask < 1<<total; mask++ {
		lost := 0
		for b := 0; b < total; b++ {
			lost += int(mask >> b & 1)
		}
		if lost <= max {
			f(mask)
		}
	}
}

func TestKernelMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, cfg := range oracleConfigs() {
		m, n := cfg[0], cfg[1]
		e, err := New(m, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range oracleLengths(m) {
			name := fmt.Sprintf("rs(%d,%d)/%dB", m, n, size)
			data := make([]byte, size)
			r.Read(data)
			want := refEncode(e, data)
			per := len(want[0])

			// Encode: parity equals the reference, data shards and the
			// caller's buffer are untouched.
			orig := append([]byte(nil), data...)
			shards, err := e.Split(data)
			if err != nil {
				t.Fatalf("%s: split: %v", name, err)
			}
			if err := e.Encode(shards); err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			if !bytes.Equal(data, orig) {
				t.Fatalf("%s: Encode wrote to the caller's data", name)
			}
			for i := range want {
				if !bytes.Equal(shards[i], want[i]) {
					t.Fatalf("%s: shard %d differs from the reference", name, i)
				}
			}

			// Reconstruct: every loss pattern of up to n shards (the
			// long sizes in -short mode: a sample of them).
			var masks []uint
			lossPatterns(m+n, n, func(mask uint) { masks = append(masks, mask) })
			if testing.Short() && size > 4097 && len(masks) > 24 {
				r.Shuffle(len(masks), func(i, j int) { masks[i], masks[j] = masks[j], masks[i] })
				masks = masks[:24]
			}
			for _, mask := range masks {
				work := make([][]byte, m+n)
				for i := range work {
					if mask>>i&1 == 0 {
						work[i] = want[i]
					}
				}
				if err := e.Reconstruct(work); err != nil {
					t.Fatalf("%s: reconstruct mask %b: %v", name, mask, err)
				}
				for i := range work {
					if !bytes.Equal(work[i], want[i]) {
						t.Fatalf("%s: mask %b: shard %d differs from the reference", name, mask, i)
					}
				}
			}

			// ReconstructInto: every index, alone and with n-1 further
			// random losses, into a dirty destination.
			for idx := 0; idx < m+n; idx++ {
				for _, extra := range []int{0, n - 1} {
					work := append([][]byte(nil), want...)
					work[idx] = nil
					for _, j := range r.Perm(m + n) {
						if extra > 0 && j != idx {
							work[j] = nil
							extra--
						}
					}
					dst := bytes.Repeat([]byte{0xa5}, per)
					if err := e.ReconstructInto(work, idx, dst); err != nil {
						t.Fatalf("%s: reconstruct-into %d: %v", name, idx, err)
					}
					if !bytes.Equal(dst, want[idx]) {
						t.Fatalf("%s: reconstruct-into %d differs from the reference", name, idx)
					}
				}
			}
		}
	}
}

// TestSplitAliasesAndJoinRoundTrips pins Split's contract: full data
// shards are slices of the caller's buffer (asserted by address), their
// capacity is clipped so an append cannot reach the next shard, the
// padded tail is zero, and Join undoes Split for every length around
// the shard boundaries.
func TestSplitAliasesAndJoinRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, cfg := range oracleConfigs() {
		m, n := cfg[0], cfg[1]
		e, _ := New(m, n)
		for size := 1; size <= 4*m+3; size++ {
			data := make([]byte, size)
			r.Read(data)
			orig := append([]byte(nil), data...)
			shards, err := e.Split(data)
			if err != nil {
				t.Fatal(err)
			}
			if &shards[0][0] != &data[0] {
				t.Fatalf("rs(%d,%d) %dB: shard 0 does not alias the data", m, n, size)
			}
			per := len(shards[0])
			for i, s := range shards {
				if len(s) != per || cap(s) != per {
					t.Fatalf("rs(%d,%d) %dB: shard %d has len %d cap %d, want %d and %d", m, n, size, i, len(s), cap(s), per, per)
				}
				for j := range s {
					want := byte(0)
					if off := i*per + j; i < m && off < size {
						want = orig[off]
					}
					if s[j] != want {
						t.Fatalf("rs(%d,%d) %dB: shard %d byte %d = %#x, want %#x", m, n, size, i, j, s[j], want)
					}
				}
			}
			_ = append(shards[0], 0xee) // must reallocate, not write data[per]
			if !bytes.Equal(data, orig) {
				t.Fatalf("rs(%d,%d) %dB: append to a shard scribbled on the data", m, n, size)
			}
			got, err := e.Join(shards, size)
			if err != nil || !bytes.Equal(got, orig) {
				t.Fatalf("rs(%d,%d) %dB: join = %v, %v", m, n, size, got, err)
			}
			if cap(got) != size {
				t.Fatalf("rs(%d,%d) %dB: join allocated %d bytes", m, n, size, cap(got))
			}
			if _, err := e.Join(shards, -1); err == nil {
				t.Fatalf("rs(%d,%d): negative join size accepted", m, n)
			}
			if _, err := e.Join(shards, m*per+1); err == nil {
				t.Fatalf("rs(%d,%d): join size beyond the shard data accepted", m, n)
			}
		}
	}
}
