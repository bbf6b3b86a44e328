package experiments

import (
	"math/rand"
	"testing"
)

func TestCapDistSampleBounds(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(1))
	for _, d := range AllDists {
		caps := d.Sample(r, 2000, 1)
		if len(caps) != 2000 {
			t.Fatal("length")
		}
		lo, hi := int64(d.Lo*MB), int64(d.Hi*MB)
		var sum int64
		for _, c := range caps {
			if c < lo-1 || c > hi+1 {
				t.Fatalf("%s: capacity %d outside [%d, %d]", d.Name, c, lo, hi)
			}
			sum += c
		}
		mean := float64(sum) / 2000
		if mean < 0.9*d.M*MB || mean > 1.1*d.M*MB {
			t.Fatalf("%s: mean %.0f too far from %g MB", d.Name, mean, d.M)
		}
	}
}

func TestCapDistScale(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(2))
	caps := D1.Sample(r, 100, 10)
	for _, c := range caps {
		if c < int64(10*D1.Lo*MB)-1 || c > int64(10*D1.Hi*MB)+1 {
			t.Fatalf("scaled capacity %d outside x10 bounds", c)
		}
	}
}

func TestFilesForRatios(t *testing.T) {
	t.Parallel()
	// At the paper's parameters the derived file count must land near
	// the paper's 1.86M unique NLANR files (we derive ~1.79M from the
	// same capacity and mean size).
	files := filesFor(D1, 2250, 5, 1, webMeanSize, DefaultOvershoot)
	if files < 1_200_000 || files > 2_200_000 {
		t.Fatalf("full-scale file count %d implausible", files)
	}
	// Doubling the overshoot doubles the files; doubling k halves them.
	if f2 := filesFor(D1, 2250, 5, 1, webMeanSize, 2*DefaultOvershoot); f2 < 2*files-2 || f2 > 2*files+2 {
		t.Fatalf("overshoot scaling broken: %d vs %d", f2, files)
	}
	if fk := filesFor(D1, 2250, 10, 1, webMeanSize, DefaultOvershoot); fk < files/2-2 || fk > files/2+2 {
		t.Fatalf("k scaling broken: %d vs %d", fk, files)
	}
}

func TestStorageConfigDefaults(t *testing.T) {
	t.Parallel()
	cfg := StorageConfig{Nodes: 100}.withDefaults()
	if cfg.L != 32 || cfg.Dist.Name != "d1" || cfg.CapScale != 1 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.files() != filesFor(D1, 100, 5, 1, webMeanSize, DefaultOvershoot) {
		t.Fatalf("derived file count %d", cfg.files())
	}
	// Baseline semantics preserved: explicit zeroes are kept.
	base := StorageConfig{Nodes: 10, TPri: 1, TDiv: 0, MaxRetries: 0}.withDefaults()
	if base.TDiv != 0 || base.MaxRetries != 0 || base.TPri != 1 {
		t.Fatalf("baseline knobs overridden: %+v", base)
	}
}

func TestCachingConfigDefaults(t *testing.T) {
	t.Parallel()
	spec := CachingConfig{Nodes: 100}.webSpec()
	if spec.UniqueFiles == 0 || spec.Requests != spec.UniqueFiles*215/100 {
		t.Fatalf("caching defaults: %+v", spec)
	}
	if spec.Clients != 775 || spec.Sites != 8 {
		t.Fatalf("caching client defaults: %+v", spec)
	}
	if spec := (CachingConfig{Nodes: 100, Clients: 96}).webSpec(); spec.Clients != 96 {
		t.Fatalf("clients not honoured: %+v", spec)
	}
}
