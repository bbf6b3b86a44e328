package experiments

import (
	"strings"
	"testing"
)

func TestECDurabilityFingerprintBitIdentical(t *testing.T) {
	t.Parallel()
	cfg := ECDurabilityConfig{Seed: 42}
	a, err := RunECDurability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunECDurability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == "" || a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints differ:\n%s\n%s", a.Fingerprint, b.Fingerprint)
	}
	c, err := RunECDurability(ECDurabilityConfig{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint == a.Fingerprint {
		t.Fatal("different seeds produced identical fingerprints")
	}
}

// The acceptance sweep: at equal 3.0x storage overhead, EC(4,8) with
// repair on matches or beats k=3 replication, decays without repair,
// and no node ever exceeds its per-epoch repair byte cap.
func TestECDurabilityAcceptance(t *testing.T) {
	t.Parallel()
	r, err := RunECDurability(ECDurabilityConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckECDurability(r); err != nil {
		t.Fatal(err)
	}

	// The cap witness is not vacuous: the sweep's constrained budget
	// must actually defer repairs somewhere.
	var deferred int64
	for _, p := range r.Points {
		deferred += p.RepairsDeferred
	}
	if deferred == 0 {
		t.Fatal("no repairs were ever deferred; the byte cap was never binding")
	}

	// Overhead parity between the two schemes is what makes the
	// comparison fair; guard it against config drift.
	if ecdReplication.Overhead() != ecdCoded.Overhead() {
		t.Fatalf("schemes not at equal overhead: rep %.2fx vs ec %.2fx",
			ecdReplication.Overhead(), ecdCoded.Overhead())
	}
}

func TestECDurabilityRender(t *testing.T) {
	t.Parallel()
	r, err := RunECDurability(ECDurabilityConfig{
		Nodes: 20, Objects: 40, Epochs: 12, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderECDurability(r)
	for _, want := range []string{"rs(1,2)", "rs(4,8)", "survive%", "fingerprint:", "off"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
