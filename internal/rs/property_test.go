package rs

import (
	"bytes"
	"math/rand"
	"testing"

	"past/internal/ec"
)

// The erasure-coding contract the node-level EC mode (internal/ec,
// internal/past) stands on, verified exhaustively on the coder itself:
// EVERY m-subset of an RS(m,n) fragment set reconstructs the original
// bit-identically, and a bit-flipped fragment is caught by its content
// checksum and excluded — after which reconstruction from the honest
// remainder still yields the original, and the re-derived fragment
// matches the checksum the flipped copy failed. internal/past's
// TestECPropertyOnTheNode checks the same two properties end to end,
// through lookups on a coded cluster.

// subsets invokes fn with every size-k subset of {0..n-1}.
func subsets(n, k int, fn func(pick []int)) {
	pick := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			fn(pick)
			return
		}
		for i := start; i <= n-(k-depth); i++ {
			pick[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

func TestEveryMSubsetReconstructsBitIdentically(t *testing.T) {
	for _, p := range []struct{ m, n int }{{2, 2}, {3, 2}, {4, 3}, {5, 4}} {
		enc, err := New(p.m, p.n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(p.m*100 + p.n)))
		content := make([]byte, 1000*p.m+rng.Intn(500)) // not shard-aligned
		rng.Read(content)

		shards, err := enc.Split(content)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(shards); err != nil {
			t.Fatal(err)
		}
		total := p.m + p.n

		tried := 0
		subsets(total, p.m, func(pick []int) {
			tried++
			sub := make([][]byte, total)
			for _, idx := range pick {
				sub[idx] = append([]byte(nil), shards[idx]...)
			}
			if err := enc.Reconstruct(sub); err != nil {
				t.Fatalf("rs(%d,%d) subset %v: reconstruct: %v", p.m, p.n, pick, err)
			}
			got, err := enc.Join(sub, len(content))
			if err != nil {
				t.Fatalf("rs(%d,%d) subset %v: join: %v", p.m, p.n, pick, err)
			}
			if !bytes.Equal(got, content) {
				t.Fatalf("rs(%d,%d) subset %v: content differs", p.m, p.n, pick)
			}
			// Parity shards must regenerate bit-identically too: any
			// repaired fragment is indistinguishable from the original.
			for idx := 0; idx < total; idx++ {
				if !bytes.Equal(sub[idx], shards[idx]) {
					t.Fatalf("rs(%d,%d) subset %v: rebuilt shard %d differs from original", p.m, p.n, pick, idx)
				}
			}
		})
		if want := binomial(total, p.m); tried != want {
			t.Fatalf("rs(%d,%d): tried %d subsets, want %d", p.m, p.n, tried, want)
		}
	}
}

func binomial(n, k int) int {
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

func TestBitFlippedFragmentDetectedAndExcluded(t *testing.T) {
	const m, n = 4, 3
	enc, err := New(m, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	content := make([]byte, 4096)
	rng.Read(content)

	shards, err := enc.Split(content)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(shards); err != nil {
		t.Fatal(err)
	}
	crcs := make([]uint32, m+n)
	for i, s := range shards {
		crcs[i] = ec.Checksum(s)
	}

	// Flip one bit in each fragment position in turn.
	for victim := 0; victim < m+n; victim++ {
		dirty := make([][]byte, m+n)
		for i, s := range shards {
			dirty[i] = append([]byte(nil), s...)
		}
		dirty[victim][rng.Intn(len(dirty[victim]))] ^= 1 << uint(rng.Intn(8))

		// Detection: exactly the flipped fragment fails its checksum.
		excluded := 0
		for i, s := range dirty {
			if ec.Checksum(s) != crcs[i] {
				if i != victim {
					t.Fatalf("victim %d: fragment %d failed its checksum", victim, i)
				}
				dirty[i] = nil // exclude, as the fetch path does
				excluded++
			}
		}
		if excluded != 1 {
			t.Fatalf("victim %d: %d fragments excluded, want 1", victim, excluded)
		}

		// Exclusion leaves m+n-1 honest fragments — reconstruction must
		// restore the original content and re-derive the excluded
		// fragment bit-identically (checksum it failed now passes).
		if err := enc.Reconstruct(dirty); err != nil {
			t.Fatalf("victim %d: reconstruct: %v", victim, err)
		}
		got, err := enc.Join(dirty, len(content))
		if err != nil {
			t.Fatalf("victim %d: join: %v", victim, err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("victim %d: content differs after exclusion", victim)
		}
		if ec.Checksum(dirty[victim]) != crcs[victim] {
			t.Fatalf("victim %d: rebuilt fragment fails the original checksum", victim)
		}
	}
}
