package experiments

import (
	"strings"
	"testing"

	"past/internal/metrics"
)

// fabricateResult builds a StorageResult from synthetic samples, so the
// renderers can be exercised without trace-driven cluster runs.
func fabricateResult(tpri, tdiv float64) *StorageResult {
	col := metrics.NewCollector(1_000_000, 1)
	for i := 0; i < 1000; i++ {
		util := float64(i) / 1000
		col.ReplicaStored([20]byte{byte(i)}, 1000, i%7 == 0)
		ok := !(util > 0.9 && i%5 == 0)
		attempts := 1
		if util > 0.8 && i%9 == 0 {
			attempts = 2
		}
		col.RecordInsert(util, int64(1000+i*13), attempts, ok, 0)
	}
	r := &StorageResult{
		Config:    StorageConfig{Dist: D1, L: 32, TPri: tpri, TDiv: tdiv},
		Collector: col,
		Totals:    col.Totals(),
		FinalUtil: col.Utilization(),
	}
	r.SuccessPct = 100 * float64(r.Totals.Succeeded) / float64(r.Totals.Total)
	r.FailPct = 100 - r.SuccessPct
	return r
}

func TestRenderTablesFromFabricatedResults(t *testing.T) {
	t.Parallel()
	rows := []*StorageResult{fabricateResult(0.5, 0.05), fabricateResult(0.1, 0.05)}
	for _, out := range []string{
		RenderTable2(rows),
		RenderTable3(rows),
		RenderTable4(rows),
		RenderFig2(rows),
		RenderFig3(rows),
	} {
		if !strings.Contains(out, "%") || len(out) < 100 {
			t.Fatalf("render too thin:\n%s", out)
		}
	}
}

func TestRenderFiguresFromFabricatedResult(t *testing.T) {
	t.Parallel()
	r := fabricateResult(0.1, 0.05)
	fig4 := RenderFig4(r)
	if !strings.Contains(fig4, "1 redirect") {
		t.Fatal("fig4 render")
	}
	fig5 := RenderFig5(r)
	if !strings.Contains(fig5, "diverted ratio") || !strings.Contains(fig5, "|") {
		t.Fatal("fig5 render must include the chart")
	}
	fig6 := RenderFig6(r, "Figure 6 test")
	if !strings.Contains(fig6, "Figure 6 test") || !strings.Contains(fig6, "cum. fail") {
		t.Fatal("fig6 render")
	}
}

func TestRenderOverheadAndFragmentation(t *testing.T) {
	t.Parallel()
	or := &OverheadResult{
		Buckets: []OverheadBucket{
			{UtilLo: 0, Inserts: 10, MsgsPerInsert: 5, Lookups: 4, HopsPerLookup: 1.5},
			{UtilLo: 0.9, Inserts: 10, MsgsPerInsert: 50, Lookups: 4, HopsPerLookup: 2.0, IndirectPct: 12},
		},
		FinalUtil: 0.95,
	}
	if out := RenderOverhead(or); !strings.Contains(out, "msgs/insert") {
		t.Fatal("overhead render")
	}
	fr := &FragmentationResult{Utilization: 0.76, Files: 20, FragOK: 20, CodedOK: 20,
		FragBytes: 416_000_000, CodedBytes: 125_000_000, FetchOKFrag: 20, FetchOKCoded: 20}
	if out := RenderFragmentation(fr); !strings.Contains(out, "rs(8,4) stripes") {
		t.Fatal("fragmentation render")
	}
}

func TestRenderRoutingText(t *testing.T) {
	t.Parallel()
	rr := &RoutingResult{Nodes: 300, Lookups: 100, LogBound: 3, MeanHops: 1.6,
		MaxHops: 3, HopHistogram: []int{2, 30, 60, 8}, NearestPct: 40, Nearest2Pct: 57}
	out := RenderRouting(rr)
	if !strings.Contains(out, "nearest replica") || !strings.Contains(out, "3 hops") {
		t.Fatal("routing render")
	}
}

func TestWorkloadKindString(t *testing.T) {
	t.Parallel()
	if WebWorkload.String() != "web" || FSWorkload.String() != "filesystem" {
		t.Fatal("workload names")
	}
}

func TestFmtAt(t *testing.T) {
	t.Parallel()
	pts := []metrics.Point{{Util: 0.1, Value: 0.5}, {Util: 0.5, Value: 0.7}}
	if fmtAt(pts, 0.05) != "-" {
		t.Fatal("before first point must be -")
	}
	if fmtAt(pts, 0.3) != "0.50000" {
		t.Fatalf("fmtAt(0.3) = %s", fmtAt(pts, 0.3))
	}
	if fmtAt(pts, 1.0) != "0.70000" {
		t.Fatal("last value")
	}
}

func TestRenderStorageMulti(t *testing.T) {
	t.Parallel()
	runs := [][]*StorageResult{
		{fabricateResult(0.1, 0.05), fabricateResult(0.5, 0.05)},
		{fabricateResult(0.1, 0.05), fabricateResult(0.5, 0.05)},
	}
	out := renderStorageMulti("test sweep", runs, func(r *StorageResult) string {
		return "tpri=" + r.Config.Dist.Name
	})
	if !strings.Contains(out, "2 seeds") || !strings.Contains(out, "Util%") {
		t.Fatalf("multi render:\n%s", out)
	}
	// Identical seeds: sd must be 0, so no cell renders a ± (the header
	// legend is the only occurrence).
	if strings.Count(out, "±") != 1 {
		t.Fatalf("identical runs should have zero sd:\n%s", out)
	}
}

func TestSummaryCell(t *testing.T) {
	t.Parallel()
	c := summarize([]float64{1, 2, 3})
	if c.Mean != 2 || c.SD < 0.99 || c.SD > 1.01 {
		t.Fatalf("summarize: %+v", c)
	}
	if summarize(nil).Mean != 0 {
		t.Fatal("empty summarize")
	}
	if s := (SummaryCell{Mean: 5}).String(); s != "5.00" {
		t.Fatalf("zero-sd string: %s", s)
	}
}
