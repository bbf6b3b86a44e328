package cache

import (
	"testing"

	"past/internal/stats"
)

// checkHeapConsistency asserts the cache's internal invariants: the
// heap satisfies the min-heap property, every item's recorded index is
// its actual slot, the heap and the lookup map agree exactly, and the
// byte accounting matches the items.
func checkHeapConsistency(t *testing.T, ca *Cache) {
	t.Helper()
	if len(ca.h) != len(ca.items) {
		t.Fatalf("heap has %d items, map has %d", len(ca.h), len(ca.items))
	}
	var used int64
	for i, s := range ca.h {
		it := s.it
		if it.idx != i {
			t.Fatalf("item %s records index %d but sits at %d", it.file.Short(), it.idx, i)
		}
		if got, ok := ca.items[it.file]; !ok || got != it {
			t.Fatalf("heap item %s missing from (or stale in) the map", it.file.Short())
		}
		for _, child := range []int{2*i + 1, 2*i + 2} {
			if child < len(ca.h) && ca.h[child].pri < s.pri {
				t.Fatalf("heap property violated: parent %d pri %g > child %d pri %g",
					i, s.pri, child, ca.h[child].pri)
			}
		}
		used += it.size
	}
	if used != ca.used {
		t.Fatalf("accounted %d bytes, items hold %d", ca.used, used)
	}
	if ca.used > ca.limit {
		t.Fatalf("used %d exceeds limit %d", ca.used, ca.limit)
	}
}

// TestGDSHeapConsistentUnderInsertPressure drives a near-full GD-S
// cache with a hot Zipf stream — the regime admission control creates
// at an access node, where nearly every insert forces one or more
// evictions and hits keep re-floating hot entries via the heap's fix. The
// heap, the map, and the byte accounting must stay mutually consistent
// throughout, and the GD-S inflation value must never decrease.
func TestGDSHeapConsistentUnderInsertPressure(t *testing.T) {
	const (
		limit = 10_000
		files = 400
		ops   = 8000
	)
	ca := New(GDS, 1)
	ca.SetLimit(limit)
	r := stats.NewRand(17)
	z := stats.NewZipf(files, 0.9)
	sizeOf := func(i int) int64 { return 50 + int64(i%13)*40 } // 50..530 bytes

	// Pre-fill to the brim so every subsequent insert works under
	// eviction pressure.
	for i := 0; i < files; i++ {
		ca.Insert(fid(uint64(i)), sizeOf(i), nil)
	}
	if free := ca.limit - ca.Used(); free > 600 {
		t.Fatalf("pre-fill left %d bytes free; want a near-full cache", free)
	}

	lastInflate := ca.inflate
	for op := 0; op < ops; op++ {
		i := z.Rank(r)
		switch op % 3 {
		case 0: // hot lookup: heap fix path
			hit(ca, fid(uint64(i)))
		case 1: // hot insert: eviction + push path
			ca.Insert(fid(uint64(i)), sizeOf(i), nil)
		default: // cold insert: unique key, guaranteed pressure
			ca.Insert(fid(uint64(files+op)), sizeOf(op), nil)
		}
		if ca.inflate < lastInflate {
			t.Fatalf("op %d: GD-S inflation decreased %g -> %g", op, lastInflate, ca.inflate)
		}
		lastInflate = ca.inflate
		if op%100 == 0 {
			checkHeapConsistency(t, ca)
		}
	}
	checkHeapConsistency(t, ca)

	_, _, evictions := ca.Stats()
	if evictions == 0 {
		t.Fatal("pressure stream forced no evictions")
	}
	// Occasional shrinking (replica growth stealing cache space) and
	// explicit removal must preserve the invariants too.
	ca.SetLimit(limit / 2)
	checkHeapConsistency(t, ca)
	for i := 0; i < files; i += 7 {
		ca.Remove(fid(uint64(i)))
	}
	checkHeapConsistency(t, ca)
}

// BenchmarkEvict measures the cost of an insert that must evict on a
// full cache, GD-S (heap) vs LRU (heap by recency tick) — the paper's
// policy against the common default.
func BenchmarkEvict(b *testing.B) {
	for _, pol := range []Policy{GDS, LRU} {
		b.Run(pol.String(), func(b *testing.B) {
			const limit = 1 << 20
			ca := New(pol, 1)
			ca.SetLimit(limit)
			// Fill with 4 KiB entries.
			n := uint64(limit / 4096)
			for i := uint64(0); i < n; i++ {
				ca.Insert(fid(i), 4096, nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Each insert displaces exactly one resident entry.
				ca.Insert(fid(n+uint64(i)), 4096, nil)
			}
			b.StopTimer()
			if ca.Used() > limit {
				b.Fatalf("cache overfull: %d > %d", ca.Used(), limit)
			}
		})
	}
}

// BenchmarkHit measures the hot-hit path (map lookup + heap fix for
// GD-S and LRU; FIFO skips the reorder).
func BenchmarkHit(b *testing.B) {
	for _, pol := range []Policy{GDS, LRU, FIFO} {
		b.Run(pol.String(), func(b *testing.B) {
			ca := New(pol, 1)
			ca.SetLimit(1 << 20)
			for i := uint64(0); i < 200; i++ {
				ca.Insert(fid(i), 4096, nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !hit(ca, fid(uint64(i)%200)) {
					b.Fatal("unexpected miss")
				}
			}
		})
	}
}
