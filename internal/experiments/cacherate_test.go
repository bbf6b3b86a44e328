package experiments

import (
	"strings"
	"testing"

	"past/internal/cachengine"
	"past/internal/loadgen"
)

func smallCacheRate() (*SweepResult, error) {
	sc := loadgen.DefaultSimConfig()
	sc.Nodes, sc.NodeRate, sc.Requests, sc.Seed = 10, 50, 900, 7
	sc.Workload.Files, sc.Workload.Alpha = 192, 0.9
	sc.Cache = &cachengine.Config{RAMBytes: 32 << 10, Flash: &cachengine.FlashConfig{Capacity: 1 << 20}}
	return RunSweep(sc, []float64{0.5}, CacheModes)
}

func TestCacheRateFlashBeatsCappedRAM(t *testing.T) {
	t.Parallel()
	r, err := smallCacheRate()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("want 3 points, got %d", len(r.Points))
	}
	if _, err := CheckCacheRate(r); err != nil {
		t.Fatal(err)
	}
	// The flash runs must actually have exercised the tier.
	fl := r.At(0.5, ModeFlash)
	if fl.Result.Cache.FlashSpills == 0 || fl.Result.Cache.FlashHits == 0 {
		t.Fatalf("flash tier idle: %+v", fl.Result.Cache)
	}
	// The RAM-capped run must have been genuinely constrained, or the
	// comparison says nothing.
	ram := r.At(0.5, ModeRAM)
	if ram.Result.Cache.Evictions == 0 {
		t.Fatalf("RAM-only run never evicted: %+v", ram.Result.Cache)
	}
}

func TestCacheRateDeterministic(t *testing.T) {
	t.Parallel()
	a, err := smallCacheRate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := smallCacheRate()
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == "" || a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints differ:\n%s\n%s", a.Fingerprint, b.Fingerprint)
	}
	for i := range a.Points {
		if a.Points[i].Result.Cache != b.Points[i].Result.Cache {
			t.Fatalf("point %d cache counters differ:\n%+v\n%+v",
				i, a.Points[i].Result.Cache, b.Points[i].Result.Cache)
		}
	}
}

func TestRenderCacheRate(t *testing.T) {
	t.Parallel()
	r, err := smallCacheRate()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderCacheRate(r)
	for _, want := range []string{ModeLegacy, ModeRAM, ModeFlash, "hit%", "fingerprint:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
