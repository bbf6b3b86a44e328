package experiments

import (
	"strings"
	"testing"

	"past/internal/loadgen"
)

// smallOverload keeps the sweep cheap: two rates bracketing
// saturation, small cluster, short runs.
func smallOverload(seed int64) (*SweepResult, error) {
	sc := loadgen.DefaultSimConfig()
	sc.Nodes, sc.NodeRate = 8, 20 // capacity 160/s
	sc.Requests, sc.Workload.Files, sc.Seed = 800, 40, seed
	return RunSweep(sc, []float64{0.5, 2}, ShedModes)
}

func TestRunOverloadFingerprintBitIdentical(t *testing.T) {
	t.Parallel()
	a, err := smallOverload(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := smallOverload(7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == "" || a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints differ across identical runs:\n%s\n%s",
			a.Fingerprint, b.Fingerprint)
	}
	for i := range a.Points {
		if *a.Points[i].Result != *b.Points[i].Result {
			t.Fatalf("point %d diverged:\n%+v\n%+v",
				i, a.Points[i].Result, b.Points[i].Result)
		}
	}
	c, err := smallOverload(8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint == a.Fingerprint {
		t.Fatal("different seeds produced identical fingerprints")
	}
}

func TestRunOverloadSheddingWinsAtTwiceCapacity(t *testing.T) {
	t.Parallel()
	res, err := smallOverload(7)
	if err != nil {
		t.Fatal(err)
	}
	off, on := res.At(2, ShedOff), res.At(2, ShedOn)
	if off == nil || on == nil {
		t.Fatal("sweep missing the 2x points")
	}
	if off.Result.Shed != 0 {
		t.Fatalf("unbounded-queue run shed %d requests", off.Result.Shed)
	}
	if on.Result.Shed == 0 {
		t.Fatal("admission control shed nothing at 2x capacity")
	}
	if on.Goodput() <= off.Goodput() {
		t.Fatalf("goodput with shedding %.1f/s <= without %.1f/s",
			on.Goodput(), off.Goodput())
	}
	if on.Result.P(99) >= off.Result.P(99) {
		t.Fatalf("p99 with shedding %v >= without %v",
			on.Result.P(99), off.Result.P(99))
	}
	// Below saturation admission control must be invisible: nothing
	// shed, goodput essentially identical.
	uOff, uOn := res.At(0.5, ShedOff), res.At(0.5, ShedOn)
	if uOn.Result.Shed != 0 {
		t.Fatalf("shed %d requests at half capacity", uOn.Result.Shed)
	}
	if uOn.Result.Good != uOff.Result.Good {
		t.Fatalf("underload goodput changed with admission on: %d vs %d",
			uOn.Result.Good, uOff.Result.Good)
	}
}

func TestRenderOverload(t *testing.T) {
	t.Parallel()
	sc := loadgen.DefaultSimConfig()
	sc.Nodes, sc.NodeRate, sc.Requests, sc.Workload.Files, sc.Seed = 5, 20, 200, 20, 3
	res, err := RunSweep(sc, []float64{1}, ShedModes)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderOverload(res)
	for _, want := range []string{"Overload sweep", "goodput", "p999", "fingerprint:", res.Fingerprint} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got < 4 {
		t.Fatalf("render too short (%d lines):\n%s", got, out)
	}
}
