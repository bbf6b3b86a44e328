package experiments

import (
	"fmt"
	"math/rand"
	"strings"
)

// Table 1: the node storage-size distributions. The paper reports the
// parameters and the sampled total capacity over 2250 nodes; we sample
// at the same unscaled parameters for the table, while experiment runs
// rescale capacities to preserve the workload-overshoot ratio.

// Table1Row is one row of Table 1.
type Table1Row struct {
	Dist            CapDist
	TotalCapacityMB float64
}

// RunTable1 samples each distribution over n nodes (paper: 2250).
func RunTable1(n int, seed int64) []Table1Row {
	rows := make([]Table1Row, 0, len(AllDists))
	for _, d := range AllDists {
		r := rand.New(rand.NewSource(seed))
		caps := d.Sample(r, n, 1)
		var tot int64
		for _, c := range caps {
			tot += c
		}
		rows = append(rows, Table1Row{Dist: d, TotalCapacityMB: float64(tot) / MB})
	}
	return rows
}

// RenderTable1 formats Table 1 in the paper's layout.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: node storage-size distributions (MBytes)\n")
	fmt.Fprintf(&b, "%-6s %6s %6s %6s %6s %10s\n", "Dist.", "m", "sigma", "lower", "upper", "total cap")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %6.0f %6.1f %6.0f %6.0f %10.0f\n",
			r.Dist.Name, r.Dist.M, r.Dist.Sigma, r.Dist.Lo, r.Dist.Hi, r.TotalCapacityMB)
	}
	return b.String()
}

// Baseline runs the no-diversion experiment of section 5.1: tpri=1,
// tdiv=0, no re-salting. The paper measures 51.1% failed insertions and
// 60.8% final utilization — the motivation for storage management.
func Baseline(sc Scale, seed int64) (*StorageResult, error) {
	cfg := standardStorage(sc, seed)
	cfg.TPri, cfg.TDiv, cfg.MaxRetries = 1, 0, 0 // declare failure on the first negative ack
	return RunStorage(cfg)
}

// RenderBaseline formats the baseline result against the paper's claim.
func RenderBaseline(r *StorageResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Baseline (no replica/file diversion): tpri=1 tdiv=0 no re-salting\n")
	fmt.Fprintf(&b, "  insertions failed: %5.1f%%   (paper: 51.1%%)\n", r.FailPct)
	fmt.Fprintf(&b, "  final utilization: %5.1f%%   (paper: 60.8%%)\n", 100*r.FinalUtil)
	return b.String()
}

// RunTable2 sweeps the four capacity distributions and both leaf-set
// sizes at tpri=0.1, tdiv=0.05 (Table 2).
func RunTable2(sc Scale, seed int64) ([]*StorageResult, error) {
	var out []*StorageResult
	for _, l := range []int{16, 32} {
		rows, err := vary(sc, seed, AllDists, func(c *StorageConfig, d CapDist) { c.L, c.Dist = l, d })
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// RenderTable2 formats Table 2 in the paper's layout.
func RenderTable2(rows []*StorageResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: storage distribution and leaf-set size sweep (tpri=0.1, tdiv=0.05)\n")
	fmt.Fprintf(&b, "%-6s %9s %7s %10s %12s %7s\n",
		"Dist.", "Succeed", "Fail", "File div.", "Replica div.", "Util.")
	lastL := 0
	for _, r := range rows {
		if r.Config.L != lastL {
			lastL = r.Config.L
			fmt.Fprintf(&b, "l = %d\n", lastL)
		}
		fmt.Fprintf(&b, "%-6s %8.1f%% %6.1f%% %9.1f%% %11.1f%% %6.1f%%\n",
			r.Config.Dist.Name, r.SuccessPct, r.FailPct,
			r.FileDiversionPct, r.ReplicaDiversionPct, 100*r.FinalUtil)
	}
	b.WriteString("paper (l=16, d1): 97.6% / 2.4% / 8.4% / 14.8% / 94.9%\n")
	b.WriteString("paper (l=32, d1): 99.3% / 0.7% / 3.5% / 16.1% / 98.2%\n")
	return b.String()
}

// TPriSweep is Table 3's parameter set, in the paper's row order.
var TPriSweep = []float64{0.5, 0.2, 0.1, 0.05}

// RunTable3 sweeps tpri with tdiv=0.05 on d1 (Table 3 / Figure 2).
func RunTable3(sc Scale, seed int64) ([]*StorageResult, error) {
	return vary(sc, seed, TPriSweep, func(c *StorageConfig, tpri float64) { c.TPri = tpri })
}

// RenderTable3 formats Table 3.
func RenderTable3(rows []*StorageResult) string {
	return renderSweepTable("Table 3: tpri sweep (tdiv=0.05, d1, l=32)", "tpri", "%-6.2f", rows,
		func(r *StorageResult) float64 { return r.Config.TPri },
		"paper: tpri=0.5: 88.0%/12.0%/4.4%/18.8%/99.7% ... tpri=0.05: 99.7%/0.3%/2.2%/12.9%/97.4%\n")
}

// TDivSweep is Table 4's parameter set, in the paper's row order.
var TDivSweep = []float64{0.1, 0.05, 0.01, 0.005}

// RunTable4 sweeps tdiv with tpri=0.1 on d1 (Table 4 / Figure 3).
func RunTable4(sc Scale, seed int64) ([]*StorageResult, error) {
	return vary(sc, seed, TDivSweep, func(c *StorageConfig, tdiv float64) { c.TDiv = tdiv })
}

// RenderTable4 formats Table 4.
func RenderTable4(rows []*StorageResult) string {
	return renderSweepTable("Table 4: tdiv sweep (tpri=0.1, d1, l=32)", "tdiv", "%-6.3f", rows,
		func(r *StorageResult) float64 { return r.Config.TDiv },
		"paper: tdiv=0.1: 93.7%/6.3%/5.1%/13.8%/99.8% ... tdiv=0.005: 99.6%/0.4%/0.5%/14.7%/90.5%\n")
}

// renderSweepTable formats one row per run of a threshold sweep: the
// swept value (val, printed with format), then Table 2's columns.
func renderSweepTable(title, param, format string, rows []*StorageResult, val func(*StorageResult) float64, paper string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-6s %9s %7s %10s %12s %7s\n",
		param, "Succeed", "Fail", "File div.", "Replica div.", "Util.")
	for _, r := range rows {
		fmt.Fprintf(&b, format+" %8.2f%% %6.2f%% %9.2f%% %11.2f%% %6.1f%%\n",
			val(r), r.SuccessPct, r.FailPct,
			r.FileDiversionPct, r.ReplicaDiversionPct, 100*r.FinalUtil)
	}
	b.WriteString(paper)
	return b.String()
}
