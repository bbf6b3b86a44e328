package experiments

import (
	"strings"
	"testing"
)

// These tests validate the qualitative shapes the paper reports, at a
// scale small enough for CI. cmd/past-bench runs the same experiments
// at paper-like scale.

func TestTable1Render(t *testing.T) {
	t.Parallel()
	rows := RunTable1(2250, 1)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper totals: 61,009 / 61,154 / 61,493 / 59,595 MB. Means are all
	// 27 MB over 2250 nodes => ~60,750 MB; allow 5%.
	for _, r := range rows {
		if r.TotalCapacityMB < 55_000 || r.TotalCapacityMB > 66_000 {
			t.Fatalf("%s total %.0f MB implausible", r.Dist.Name, r.TotalCapacityMB)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "d1") || !strings.Contains(out, "d4") {
		t.Fatal("render missing rows")
	}
}

func TestBaselineVsDiversionShape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full trace-driven run; skipped with -short")
	}
	base, err := Baseline(ScaleTiny, 42)
	if err != nil {
		t.Fatal(err)
	}
	std, err := StandardRun(ScaleTiny, WebWorkload, 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline: fail=%.1f%% util=%.1f%%", base.FailPct, 100*base.FinalUtil)
	t.Logf("standard: fail=%.1f%% util=%.1f%% filediv=%.1f%% repdiv=%.1f%%",
		std.FailPct, 100*std.FinalUtil, std.FileDiversionPct, std.ReplicaDiversionPct)

	// Paper, section 5.1: without diversion 51.1% of insertions fail and
	// utilization tops out at 60.8%; with diversion failures drop to ~1%
	// and utilization exceeds 94%. Qualitative assertions:
	if base.FailPct < 10 {
		t.Fatalf("baseline failure rate %.1f%% suspiciously low; storage management appears unneeded", base.FailPct)
	}
	if base.FinalUtil > 0.85 {
		t.Fatalf("baseline utilization %.1f%% too high", 100*base.FinalUtil)
	}
	if std.FinalUtil <= base.FinalUtil {
		t.Fatalf("diversion did not improve utilization: %.3f <= %.3f", std.FinalUtil, base.FinalUtil)
	}
	if std.FailPct >= base.FailPct/2 {
		t.Fatalf("diversion did not cut failures: %.1f%% vs %.1f%%", std.FailPct, base.FailPct)
	}
	if std.FinalUtil < 0.85 {
		t.Fatalf("with diversion utilization %.1f%% below 85%%", 100*std.FinalUtil)
	}
	// Replica diversion must actually occur, and both diversion renders
	// must produce output.
	if std.ReplicaDiversionPct <= 0 {
		t.Fatal("no replica diversions in the standard run")
	}
	for _, r := range []struct{ row, render string }{
		{"baseline", RenderBaseline(base)},
		{"fig4", RenderFig4(std)},
		{"fig5", RenderFig5(std)},
		{"fig6", RenderFig6(std, "Figure 6")},
	} {
		if len(r.render) == 0 {
			t.Fatal("empty render")
		}
		pinRender(t, r.row+" tiny seed 42", r.render)
	}
}

func TestFailuresBiasedTowardLargeFiles(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full trace-driven run; skipped with -short")
	}
	std, err := StandardRun(ScaleTiny, WebWorkload, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Paper (Fig 6 discussion): failed insertions are heavily biased
	// toward large files. Mean size of failures must exceed the overall
	// mean size by a wide margin.
	var failSum, okSum float64
	var failN, okN int
	for _, s := range std.Collector.Inserts {
		if s.OK {
			okSum += float64(s.Size)
			okN++
		} else {
			failSum += float64(s.Size)
			failN++
		}
	}
	if failN == 0 {
		t.Skip("no failures at this scale/seed")
	}
	if failSum/float64(failN) < 3*okSum/float64(okN) {
		t.Fatalf("failed-insert mean size %.0f not >> successful mean %.0f",
			failSum/float64(failN), okSum/float64(okN))
	}
}

func TestTPriSweepDirection(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full trace-driven run; skipped with -short")
	}
	rows, err := RunTable3(ScaleTiny, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(TPriSweep) {
		t.Fatal("row count")
	}
	// Paper: higher tpri => higher final utilization but more failures.
	hi := rows[0] // tpri = 0.5
	lo := rows[3] // tpri = 0.05
	t.Logf("tpri=0.5: fail=%.2f%% util=%.1f%% | tpri=0.05: fail=%.2f%% util=%.1f%%",
		hi.FailPct, 100*hi.FinalUtil, lo.FailPct, 100*lo.FinalUtil)
	if hi.FinalUtil < lo.FinalUtil {
		t.Fatalf("utilization not increasing in tpri: %.3f < %.3f", hi.FinalUtil, lo.FinalUtil)
	}
	if hi.FailPct < lo.FailPct {
		t.Fatalf("failures not increasing in tpri: %.2f%% < %.2f%%", hi.FailPct, lo.FailPct)
	}
	s := RenderTable3(rows) + RenderFig2(rows)
	if len(s) == 0 {
		t.Fatal("empty render")
	}
	pinRender(t, "table3+fig2 tiny seed 11", s)
}

func TestTDivSweepDirection(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full trace-driven run; skipped with -short")
	}
	rows, err := RunTable4(ScaleTiny, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: larger tdiv => higher utilization, more failures.
	hi := rows[0] // tdiv = 0.1
	lo := rows[3] // tdiv = 0.005
	t.Logf("tdiv=0.1: fail=%.2f%% util=%.1f%% | tdiv=0.005: fail=%.2f%% util=%.1f%%",
		hi.FailPct, 100*hi.FinalUtil, lo.FailPct, 100*lo.FinalUtil)
	if hi.FinalUtil < lo.FinalUtil {
		t.Fatalf("utilization not increasing in tdiv: %.3f < %.3f", hi.FinalUtil, lo.FinalUtil)
	}
	s := RenderTable4(rows) + RenderFig3(rows)
	if len(s) == 0 {
		t.Fatal("empty render")
	}
	pinRender(t, "table4+fig3 tiny seed 12", s)
}

func TestDiversionNegligibleAtLowUtil(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full trace-driven run; skipped with -short")
	}
	std, err := StandardRun(ScaleTiny, WebWorkload, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Paper (Fig 4): file diversions are negligible below ~83%
	// utilization. Assert: of the successful inserts issued below 50%
	// utilization, under 2% needed a re-salt.
	low, lowDiv := 0, 0
	for _, s := range std.Collector.Inserts {
		if s.Util < 0.5 && s.OK {
			low++
			if s.Attempts > 1 {
				lowDiv++
			}
		}
	}
	if low == 0 {
		t.Fatal("no low-utilization inserts")
	}
	if ratio := float64(lowDiv) / float64(low); ratio > 0.02 {
		t.Fatalf("file-diversion ratio %.3f below 50%% utilization; paper says negligible", ratio)
	}
}

func TestFilesystemWorkloadRun(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full trace-driven run; skipped with -short")
	}
	std, err := StandardRun(ScaleTiny, FSWorkload, 14)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fs workload: fail=%.2f%% util=%.1f%%", std.FailPct, 100*std.FinalUtil)
	if std.FinalUtil < 0.7 {
		t.Fatalf("filesystem workload utilization %.1f%% too low", 100*std.FinalUtil)
	}
	s := RenderFig6(std, "Figure 7")
	if !strings.Contains(s, "Figure 7") {
		t.Fatal("render")
	}
	pinRender(t, "fig7 tiny seed 14", s)
}

func TestFig8Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full trace-driven run; skipped with -short")
	}
	rows, err := RunFig8(ScaleTiny, 15)
	if err != nil {
		t.Fatal(err)
	}
	var gds, lru, none *CachingResult
	for _, r := range rows {
		switch r.Config.Policy.String() {
		case "gd-s":
			gds = r
		case "lru":
			lru = r
		case "none":
			none = r
		}
	}
	t.Logf("gd-s: hit=%.3f hops=%.2f | lru: hit=%.3f hops=%.2f | none: hit=%.3f hops=%.2f",
		gds.HitRate, gds.MeanHops, lru.HitRate, lru.MeanHops, none.HitRate, none.MeanHops)

	// Paper Fig 8 shapes:
	if none.HitRate != 0 {
		t.Fatal("no-caching run recorded cache hits")
	}
	if gds.MeanHops >= none.MeanHops {
		t.Fatalf("caching did not reduce hops: gd-s %.2f vs none %.2f", gds.MeanHops, none.MeanHops)
	}
	if lru.MeanHops >= none.MeanHops {
		t.Fatalf("LRU caching did not reduce hops: %.2f vs %.2f", lru.MeanHops, none.MeanHops)
	}
	if gds.HitRate < lru.HitRate-0.05 {
		t.Fatalf("GD-S hit rate %.3f well below LRU %.3f", gds.HitRate, lru.HitRate)
	}
	if gds.HitRate < 0.1 {
		t.Fatalf("GD-S hit rate %.3f implausibly low", gds.HitRate)
	}
	s := RenderFig8(rows)
	if !strings.Contains(s, "gd-s") {
		t.Fatal("render")
	}
	pinRender(t, "fig8 tiny seed 15", s)
}

func TestRoutingProperties(t *testing.T) {
	t.Parallel()
	r, err := RunRouting(ScaleTiny, 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + RenderRouting(r))
	pinRender(t, "routing tiny seed 16", RenderRouting(r))
	if r.Lookups == 0 {
		t.Fatal("no lookups measured")
	}
	if r.MeanHops > float64(r.LogBound)+1 {
		t.Fatalf("mean hops %.2f exceeds log bound %d + 1", r.MeanHops, r.LogBound)
	}
	// Locality: the nearest replica should serve far more often than the
	// 1-in-k chance (20%).
	if r.NearestPct < 30 {
		t.Fatalf("nearest-replica rate %.1f%% shows no locality", r.NearestPct)
	}
}

func TestScaleAndDistLookup(t *testing.T) {
	t.Parallel()
	if _, err := ScaleByName("bench"); err != nil {
		t.Fatal(err)
	}
	if _, err := ScaleByName("nope"); err == nil {
		t.Fatal("want error")
	}
}
