package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"past/internal/id"
	"past/internal/stats"
)

func fid(n uint64) id.File { return id.NewFile("f", nil, n) }

// hit looks f up through Get, reporting whether it was cached.
func hit(c *Cache, f id.File) bool {
	_, _, ok := c.Get(f)
	return ok
}

// cached reports whether f is cached, without touching any state.
func cached(c *Cache, f id.File) bool {
	_, ok := c.items[f]
	return ok
}

func TestNonePolicyNeverCaches(t *testing.T) {
	c := New(None, 1)
	c.SetLimit(1000)
	if c.Insert(fid(1), 10, nil) {
		t.Fatal("None policy must not cache")
	}
	if hit(c, fid(1)) {
		t.Fatal("None policy must miss")
	}
}

func TestInsertAndAccess(t *testing.T) {
	c := New(LRU, 1)
	c.SetLimit(1000)
	if !c.Insert(fid(1), 100, nil) {
		t.Fatal("insert failed")
	}
	if !hit(c, fid(1)) {
		t.Fatal("want hit")
	}
	if hit(c, fid(2)) {
		t.Fatal("want miss")
	}
	h, m, _ := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d", h, m)
	}
	if c.Used() != 100 || c.Len() != 1 {
		t.Fatalf("used=%d len=%d", c.Used(), c.Len())
	}
}

func TestInsertionFractionPolicy(t *testing.T) {
	// Paper: cache a file only if size < c * current cache size.
	c := New(GDS, 0.5)
	c.SetLimit(1000)
	if c.Insert(fid(1), 500, nil) {
		t.Fatal("size == c*limit must be rejected")
	}
	if !c.Insert(fid(2), 499, nil) {
		t.Fatal("size < c*limit must be accepted")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(LRU, 1)
	c.SetLimit(300)
	c.Insert(fid(1), 100, nil)
	c.Insert(fid(2), 100, nil)
	c.Insert(fid(3), 100, nil)
	hit(c, fid(1)) // 1 is now most recent; 2 is LRU
	c.Insert(fid(4), 100, nil)
	if cached(c, fid(2)) {
		t.Fatal("LRU victim should have been 2")
	}
	if !cached(c, fid(1)) || !cached(c, fid(3)) || !cached(c, fid(4)) {
		t.Fatal("wrong eviction set")
	}
}

func TestFIFOIgnoresHits(t *testing.T) {
	c := New(FIFO, 1)
	c.SetLimit(300)
	c.Insert(fid(1), 100, nil)
	c.Insert(fid(2), 100, nil)
	c.Insert(fid(3), 100, nil)
	hit(c, fid(1)) // must NOT rescue 1 under FIFO
	c.Insert(fid(4), 100, nil)
	if cached(c, fid(1)) {
		t.Fatal("FIFO victim should have been 1 despite the hit")
	}
}

func TestGDSPrefersSmallFiles(t *testing.T) {
	// With cost 1, H = L + 1/size: small files get higher weight, so a
	// large file is evicted before small ones, maximizing hit count.
	c := New(GDS, 1)
	c.SetLimit(1000)
	c.Insert(fid(1), 800, nil) // large
	c.Insert(fid(2), 100, nil) // small
	c.Insert(fid(3), 150, nil) // forces eviction
	if cached(c, fid(1)) {
		t.Fatal("GD-S should have evicted the large file")
	}
	if !cached(c, fid(2)) || !cached(c, fid(3)) {
		t.Fatal("small files should survive")
	}
}

func TestGDSAgingEvictsColdFiles(t *testing.T) {
	// GD-S aging: a small cold file starts with high weight H = 1/size,
	// but every eviction raises the inflation value L, so once
	// L exceeds it the cold file is evicted despite its size advantage.
	c := New(GDS, 1)
	c.SetLimit(200)
	c.Insert(fid(1), 20, nil) // cold, H = 0 + 1/20 = 0.05
	for i := 0; i < 50; i++ {
		c.Insert(fid(uint64(10+i)), 100, nil) // churn raises L by ~0.01 per eviction
	}
	if cached(c, fid(1)) {
		t.Fatal("cold small file survived; GD-S inflation broken")
	}

	// By contrast, a small file that is re-accessed each round keeps its
	// weight at L + 1/size, above the churn files, and survives.
	c2 := New(GDS, 1)
	c2.SetLimit(200)
	c2.Insert(fid(1), 20, nil)
	for i := 0; i < 50; i++ {
		hit(c2, fid(1))
		c2.Insert(fid(uint64(10+i)), 100, nil)
	}
	if !cached(c2, fid(1)) {
		t.Fatal("recently-accessed small file was evicted")
	}
}

func TestSetLimitShrinkEvicts(t *testing.T) {
	c := New(GDS, 1)
	c.SetLimit(1000)
	for i := 0; i < 10; i++ {
		c.Insert(fid(uint64(i)), 90, nil)
	}
	if c.Used() != 900 {
		t.Fatalf("used = %d", c.Used())
	}
	c.SetLimit(300) // a replica arrived; the cache must give way
	if c.Used() > 300 {
		t.Fatalf("used = %d after shrink", c.Used())
	}
	c.SetLimit(-10)
	if c.Used() != 0 || c.limit != 0 {
		t.Fatal("negative limit must clamp to 0 and flush")
	}
}

func TestRemove(t *testing.T) {
	c := New(LRU, 1)
	c.SetLimit(100)
	c.Insert(fid(1), 40, nil)
	if !c.Remove(fid(1)) {
		t.Fatal("remove failed")
	}
	if c.Remove(fid(1)) {
		t.Fatal("double remove must fail")
	}
	if c.Used() != 0 {
		t.Fatal("accounting after remove")
	}
}

func TestReinsertRefreshes(t *testing.T) {
	c := New(LRU, 1)
	c.SetLimit(200)
	c.Insert(fid(1), 100, nil)
	c.Insert(fid(2), 100, nil)
	if !c.Insert(fid(1), 100, nil) {
		t.Fatal("reinsert must succeed as refresh")
	}
	c.Insert(fid(3), 100, nil) // evicts LRU = 2
	if cached(c, fid(2)) || !cached(c, fid(1)) {
		t.Fatal("reinsert did not refresh recency")
	}
	if c.Used() != 200 {
		t.Fatalf("used = %d; refresh must not double-count", c.Used())
	}
}

func TestNegativeSizeRejected(t *testing.T) {
	c := New(GDS, 1)
	c.SetLimit(100)
	if c.Insert(fid(1), -5, nil) {
		t.Fatal("negative size must be rejected")
	}
}

func TestZeroSizeFiles(t *testing.T) {
	c := New(GDS, 1)
	c.SetLimit(100)
	if !c.Insert(fid(1), 0, nil) {
		t.Fatal("zero-size file should cache")
	}
	if !hit(c, fid(1)) {
		t.Fatal("zero-size hit")
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{None: "none", LRU: "lru", GDS: "gd-s", FIFO: "fifo", 9: "Policy(9)"} {
		if got := p.String(); got != want {
			t.Fatalf("Policy(%d).String() = %q, want %q", uint8(p), got, want)
		}
	}
}

func TestNewPanicsOnBadFraction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(GDS, 0)
}

// TestCacheInvariant property-checks used <= limit and used equals the
// sum of resident sizes across random operation sequences.
func TestCacheInvariant(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, pol := range []Policy{LRU, GDS, FIFO} {
			c := New(pol, 1)
			c.SetLimit(1000)
			resident := map[uint64]int64{}
			for _, op := range ops {
				k := uint64(op % 64)
				switch op % 4 {
				case 0, 1:
					size := int64(r.Intn(400))
					// A successful insert leaves the file resident at the
					// offered size — including refreshes, which update the
					// accounting of an already-cached file.
					if c.Insert(fid(k), size, nil) {
						resident[k] = size
					}
				case 2:
					hit(c, fid(k))
				case 3:
					c.Remove(fid(k))
				}
				// Reconcile shadow map with cache contents.
				for f2 := range resident {
					if !cached(c, fid(f2)) {
						delete(resident, f2)
					}
				}
				var sum int64
				for _, s := range resident {
					sum += s
				}
				if c.Used() > c.limit || c.Used() != sum || c.Len() != len(resident) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestGDSBeatsLRUOnZipfMixedSizes reproduces the qualitative Figure 8
// finding: under Zipf-popular requests with heterogeneous sizes, GD-S
// achieves at least LRU's hit rate.
func TestGDSBeatsLRUOnZipfMixedSizes(t *testing.T) {
	run := func(pol Policy) float64 {
		r := stats.NewRand(99)
		z := stats.NewZipf(2000, 0.9)
		sizes := make([]int64, 2000)
		ln := stats.LogNormalFromMedianMean(1312, 10517)
		for i := range sizes {
			sizes[i] = int64(ln.Sample(r)) + 1
		}
		c := New(pol, 1)
		c.SetLimit(64 * 1024)
		hits, total := 0, 0
		for i := 0; i < 60000; i++ {
			k := uint64(z.Rank(r))
			total++
			if hit(c, fid(k)) {
				hits++
			} else {
				c.Insert(fid(k), sizes[k], nil)
			}
		}
		return float64(hits) / float64(total)
	}
	gds := run(GDS)
	lru := run(LRU)
	t.Logf("hit rates: gd-s=%.3f lru=%.3f", gds, lru)
	if gds < lru-0.01 {
		t.Fatalf("GD-S hit rate %.3f below LRU %.3f", gds, lru)
	}
}

func BenchmarkGDSInsertEvict(b *testing.B) {
	c := New(GDS, 1)
	c.SetLimit(1 << 20)
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Insert(fid(uint64(i)), int64(r.Intn(4096)), nil)
	}
}

func BenchmarkLRUAccess(b *testing.B) {
	c := New(LRU, 1)
	c.SetLimit(1 << 20)
	for i := 0; i < 1000; i++ {
		c.Insert(fid(uint64(i)), 512, nil)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hit(c, fid(uint64(i%1000)))
	}
}
