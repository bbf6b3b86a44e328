package experiments

import "testing"

func TestFragmentationExperiment(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full trace-driven run; skipped with -short")
	}
	r, err := RunFragmentation(ScaleTiny, 71)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + RenderFragmentation(r))
	pinRender(t, "frag tiny seed 71", RenderFragmentation(r))
	if r.Utilization < 0.7 {
		t.Fatalf("fill reached only %.1f%% utilization", 100*r.Utilization)
	}
	// The section 3.4/3.6 claims: fragmentation stores large files that
	// whole-file insertion rejects, and coded stripes cost less storage.
	if r.FragOK <= r.WholeOK || r.CodedOK <= r.WholeOK {
		t.Fatalf("fragmented %d, coded %d <= whole %d successes", r.FragOK, r.CodedOK, r.WholeOK)
	}
	if r.FetchOKFrag != r.FragOK || r.FetchOKCoded != r.CodedOK {
		t.Fatal("stored objects not retrievable")
	}
	if r.CodedOK > 0 && r.FragOK > 0 {
		perCoded := float64(r.CodedBytes) / float64(r.CodedOK)
		perFrag := float64(r.FragBytes) / float64(r.FragOK)
		if perCoded >= perFrag {
			t.Fatalf("coded per-object bytes %.0f not below replicated %.0f", perCoded, perFrag)
		}
	}
}
