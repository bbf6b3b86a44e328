package cachengine

import (
	"bytes"
	"sync"
	"testing"

	"past/internal/cache"
)

// TestEngineStress hammers every engine entry point from many
// goroutines with the full feature set enabled. It exists to run under
// -race: correctness here is "no data race, no panic, and contents
// that do come back are the right bytes".
func TestEngineStress(t *testing.T) {
	e, err := New(Config{
		Policy:   cache.GDS,
		RAMBytes: 64 << 10,
		Flash:    &FlashConfig{Dir: t.TempDir(), Capacity: 256 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetLimit(64 << 10)

	const (
		workers = 8
		ops     = 4000
		keys    = 128
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := seed
			next := func(n uint64) uint64 { // xorshift, no shared rand
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng % n
			}
			for i := 0; i < ops; i++ {
				f := efid(next(keys))
				switch next(16) {
				case 0:
					e.Remove(f)
				case 1:
					e.SetLimit(int64(32<<10 + next(64<<10)))
				case 2:
					inFlash(e, f)
					e.Used()
					e.Len()
					e.Stats()
					e.ObsCounters()
				case 3, 4, 5, 6:
					size := 64 + int(next(1024))
					e.Insert(f, int64(size), epayload(f, size))
				default:
					size, content, ok := e.Get(f)
					if ok && content != nil {
						if size != int64(len(content)) {
							t.Errorf("Get %x: size %d != len %d", f[:4], size, len(content))
							return
						}
						// Payloads are a pure function of (file, size):
						// whatever tier served this, the bytes must match.
						if !bytes.Equal(content, epayload(f, len(content))) {
							t.Errorf("Get %x: corrupt content", f[:4])
							return
						}
					}
				}
			}
		}(uint64(w)*2654435761 + 1)
	}
	wg.Wait()

	st := e.Stats()
	if st.RAMHits+st.Misses == 0 {
		t.Fatal("stress ran no lookups?")
	}
	if e.Used() > 64<<10+64<<10 {
		t.Fatalf("RAM used %d far above any grant", e.Used())
	}
}
