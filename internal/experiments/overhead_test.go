package experiments

import "testing"

func TestOverheadExperiment(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full trace-driven run; skipped with -short")
	}
	r, err := RunOverhead(ScaleTiny, 81)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + RenderOverhead(r))
	pinRender(t, "overhead tiny seed 81", RenderOverhead(r))
	if len(r.Buckets) < 5 {
		t.Fatalf("only %d buckets", len(r.Buckets))
	}
	first, last := r.Buckets[0], r.Buckets[len(r.Buckets)-1]
	// Section 3.3: overhead rises with utilization (diversion work),
	// and lookups increasingly chase diverted-replica pointers.
	if last.MsgsPerInsert <= first.MsgsPerInsert {
		t.Fatalf("insert overhead did not rise: %.1f -> %.1f", first.MsgsPerInsert, last.MsgsPerInsert)
	}
	if last.IndirectPct <= first.IndirectPct {
		t.Fatalf("indirect lookups did not rise: %.1f%% -> %.1f%%", first.IndirectPct, last.IndirectPct)
	}
	// Fetch distance stays bounded by the log-route plus the one-hop
	// pointer chase.
	if last.HopsPerLookup > first.HopsPerLookup+1.5 {
		t.Fatalf("lookup hops blew up: %.2f -> %.2f", first.HopsPerLookup, last.HopsPerLookup)
	}
}
