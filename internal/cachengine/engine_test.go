package cachengine

import (
	"bytes"
	"math/rand"
	"testing"

	"past/internal/cache"
	"past/internal/id"
	"past/internal/obs"
)

func efid(n uint64) id.File { return id.NewFile("f", nil, n) }

// mustNew builds an engine whose configuration cannot fail.
func mustNew(tb testing.TB, cfg Config) *Engine {
	tb.Helper()
	e, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// inFlash reports whether f is resident in the flash tier, without
// touching the RAM tier's recency or the engine's counters.
func inFlash(e *Engine, f id.File) bool {
	_, ok := e.flash.Get(f)
	return ok
}

func epayload(f id.File, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = f[i%len(f)] ^ byte(i)
	}
	return b
}

// TestLegacyEquivalence: with no RAM cap and no flash tier, the
// engine must be operation-for-operation identical to a bare
// cache.Cache — that is what keeps the emulated experiments'
// fingerprints stable.
func TestLegacyEquivalence(t *testing.T) {
	for _, pol := range []cache.Policy{cache.GDS, cache.LRU, cache.FIFO} {
		eng := mustNew(t, Config{Policy: pol})
		ref := cache.New(pol, 1)
		eng.SetLimit(4096)
		ref.SetLimit(4096)

		r := rand.New(rand.NewSource(7))
		for i := 0; i < 5000; i++ {
			f := efid(uint64(r.Intn(64)))
			switch r.Intn(10) {
			case 0:
				if got, want := eng.Remove(f), ref.Remove(f); got != want {
					t.Fatalf("%v op %d: Remove=%v ref=%v", pol, i, got, want)
				}
			case 1, 2, 3:
				size := int64(1 + r.Intn(900))
				if got, want := eng.Insert(f, size, nil), ref.Insert(f, size, nil); got != want {
					t.Fatalf("%v op %d: Insert=%v ref=%v", pol, i, got, want)
				}
			case 4:
				n := int64(2048 + r.Intn(4096))
				eng.SetLimit(n)
				ref.SetLimit(n)
			default:
				gs, _, gok := eng.Get(f)
				ws, _, wok := ref.Get(f)
				if gok != wok || gs != ws {
					t.Fatalf("%v op %d: Get=(%d,%v) ref=(%d,%v)", pol, i, gs, gok, ws, wok)
				}
			}
			if eng.Used() != ref.Used() || eng.Len() != ref.Len() {
				t.Fatalf("%v op %d: used/len (%d,%d) ref (%d,%d)",
					pol, i, eng.Used(), eng.Len(), ref.Used(), ref.Len())
			}
		}
		st := eng.Stats()
		rh, rm, rev := ref.Stats()
		if st.RAMHits != rh || st.Misses != rm || st.Evictions != rev {
			t.Fatalf("%v: stats (%d,%d,%d) ref (%d,%d,%d)",
				pol, st.RAMHits, st.Misses, st.Evictions, rh, rm, rev)
		}
	}
}

func TestFlashFallThroughAndPromotion(t *testing.T) {
	e, err := New(Config{
		Policy: cache.GDS,
		Flash:  &FlashConfig{Dir: t.TempDir(), Capacity: 128 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetLimit(1024)

	// Two 400-byte files fit; the third evicts the coldest, which
	// spills to flash.
	contents := map[id.File][]byte{}
	for n := uint64(0); n < 3; n++ {
		f := efid(n)
		contents[f] = epayload(f, 400)
		if !e.Insert(f, 400, contents[f]) {
			t.Fatalf("insert %d refused", n)
		}
	}
	st := e.Stats()
	if st.FlashSpills == 0 {
		t.Fatalf("expected an eviction to spill, stats %+v", st)
	}
	if st.FlashEntries == 0 || st.FlashBytes == 0 {
		t.Fatalf("flash usage empty: %+v", st)
	}

	// Every file must still be readable — from RAM or flash — and one
	// served from flash is promoted: reading it again is a RAM hit.
	for f, want := range contents {
		flashHits := e.Stats().FlashHits
		size, got, ok := e.Get(f)
		if !ok || size != 400 || !bytes.Equal(got, want) {
			t.Fatalf("Get %x: ok=%v size=%d contentMatch=%v", f[:4], ok, size, bytes.Equal(got, want))
		}
		if e.Stats().FlashHits == flashHits {
			continue
		}
		ramHits := e.Stats().RAMHits
		if _, _, ok := e.Get(f); !ok || e.Stats().RAMHits != ramHits+1 {
			t.Fatalf("Get %x: a file served from flash was not promoted to RAM", f[:4])
		}
	}
	if st = e.Stats(); st.FlashHits == 0 {
		t.Fatalf("expected at least one flash hit, stats %+v", st)
	}
}

// TestFlashCapacityDropsOldestSegment: the tier derives its segment
// size from its capacity, so however many objects spill through it,
// dropping oldest segments keeps its bytes within Capacity plus an
// eighth. 8 KiB is below the segment-size floor (4 KiB segments).
func TestFlashCapacityDropsOldestSegment(t *testing.T) {
	for _, capacity := range []int64{8 << 10, 64 << 10} {
		e, err := New(Config{
			Policy: cache.GDS,
			Flash:  &FlashConfig{Dir: t.TempDir(), Capacity: capacity},
		})
		if err != nil {
			t.Fatal(err)
		}
		e.SetLimit(512)

		for n := uint64(0); n < 2000; n++ {
			f := efid(n)
			e.Insert(f, 256, epayload(f, 256))
			if b := e.Stats().FlashBytes; b > capacity+capacity/8 {
				t.Fatalf("capacity %d: after %d inserts the tier holds %d B", capacity, n+1, b)
			}
		}
		if st := e.Stats(); st.FlashSegDrops == 0 {
			t.Fatalf("capacity %d: expected segment drops under capacity pressure, stats %+v", capacity, st)
		}
		e.Close()
	}
}

func TestRemoveDropsBothTiers(t *testing.T) {
	e, err := New(Config{
		Policy: cache.GDS,
		Flash:  &FlashConfig{Dir: t.TempDir(), Capacity: 128 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetLimit(512)

	a, b := efid(1), efid(2)
	e.Insert(a, 400, epayload(a, 400))
	e.Insert(b, 400, epayload(b, 400)) // evicts a → flash
	if !inFlash(e, a) {
		t.Fatal("a should be in flash")
	}
	if !e.Remove(a) {
		t.Fatal("Remove(a) should report true")
	}
	if inFlash(e, a) {
		t.Fatal("removed file must be gone from flash")
	}
	if _, _, ok := e.Get(a); ok {
		t.Fatal("removed file must miss")
	}
}

// TestRAMBytesClampsGrant: the RAMBytes cap bounds the RAM tier below
// the owner's grant, and the paper's insertion rule (size below
// c × capacity, c = 1) is applied against the whole capped tier: a file
// of just under RAMBytes is cached, one of RAMBytes is not.
func TestRAMBytesClampsGrant(t *testing.T) {
	e := mustNew(t, Config{Policy: cache.GDS, RAMBytes: 1000})
	e.SetLimit(100000)
	f := efid(1)
	if !e.Insert(f, 999, nil) || e.Used() != 999 {
		t.Fatal("a 999-byte file was refused by a 1000-byte RAM tier")
	}
	if g := efid(2); e.Insert(g, 1000, nil) {
		t.Fatal("a file the size of the RAM tier was cached")
	}
}

// TestCachelessEngineSkipsRAMTier: with Policy None, Insert, Get and
// Remove leave the RAM tier untouched and Get still counts its miss.
func TestCachelessEngineSkipsRAMTier(t *testing.T) {
	e := mustNew(t, Config{Policy: cache.None})
	e.SetLimit(4096)
	f := efid(1)
	if e.Insert(f, 10, nil) || e.Remove(f) {
		t.Fatal("a cacheless engine cached or removed a file")
	}
	if _, _, ok := e.Get(f); ok {
		t.Fatal("a cacheless engine hit")
	}
	if st := e.Stats(); st.Misses != 1 || st.Hits() != 0 {
		t.Fatalf("stats hits %d misses %d; want 0 and 1", st.Hits(), st.Misses)
	}
}

func TestNewFlashErrors(t *testing.T) {
	if _, err := New(Config{Policy: cache.GDS, Flash: &FlashConfig{}}); err == nil {
		t.Fatal("flash without a directory must error")
	}
	// None policy never caches, so the flash tier is skipped entirely.
	e, err := New(Config{Policy: cache.None, Flash: &FlashConfig{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	if e.flash != nil {
		t.Fatal("None policy should not open a flash tier")
	}
}

func TestObsCounters(t *testing.T) {
	e, err := New(Config{
		Policy: cache.GDS,
		Flash:  &FlashConfig{Dir: t.TempDir(), Capacity: 128 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetLimit(1024)

	f := efid(5)
	e.Insert(f, 100, epayload(f, 100))
	e.Get(f)
	e.Get(efid(6))

	m := e.ObsCounters()
	for _, name := range []string{
		obs.CtrCacheRAMHits, obs.CtrCacheFlashHits,
		obs.CtrCacheFlashSpills, obs.CtrCacheFlashDrops,
		obs.CtrCacheFlashBytes, obs.CtrCacheFlashEntries,
	} {
		if _, ok := m[name]; !ok {
			t.Fatalf("ObsCounters missing %q", name)
		}
	}
	if m[obs.CtrCacheRAMHits] != 1 {
		t.Fatalf("counter values off: %v", m)
	}
	if st := e.Stats(); st.Hits() != 1 || st.Misses != 1 {
		t.Fatalf("stats hits %d misses %d; want 1 and 1", st.Hits(), st.Misses)
	}
}
