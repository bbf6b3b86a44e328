package experiments

import (
	"fmt"
	"math"
	"strings"
)

// Multi-seed aggregation: the paper reports single-trace numbers (its
// input was one fixed log); with synthetic workloads we can do better
// and quote mean +/- standard deviation over independent seeds
// (past-bench -seeds N).

// SummaryCell is one aggregated table cell.
type SummaryCell struct {
	Mean, SD float64
}

func (c SummaryCell) String() string {
	if c.SD == 0 {
		return fmt.Sprintf("%.2f", c.Mean)
	}
	return fmt.Sprintf("%.2f±%.2f", c.Mean, c.SD)
}

func summarize(vals []float64) SummaryCell {
	if len(vals) == 0 {
		return SummaryCell{}
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(len(vals))
	var sq float64
	for _, v := range vals {
		d := v - mean
		sq += d * d
	}
	sd := 0.0
	if len(vals) > 1 {
		sd = math.Sqrt(sq / float64(len(vals)-1))
	}
	return SummaryCell{Mean: mean, SD: sd}
}

// storageColumns are the five quantities every storage table reports.
var storageColumns = []struct {
	name string
	get  func(*StorageResult) float64
}{
	{"Succeed%", func(r *StorageResult) float64 { return r.SuccessPct }},
	{"Fail%", func(r *StorageResult) float64 { return r.FailPct }},
	{"FileDiv%", func(r *StorageResult) float64 { return r.FileDiversionPct }},
	{"ReplDiv%", func(r *StorageResult) float64 { return r.ReplicaDiversionPct }},
	{"Util%", func(r *StorageResult) float64 { return 100 * r.FinalUtil }},
}

// sweep gives a storage experiment its multi-seed form: run once per
// seed, then rendered by renderStorageMulti.
func sweep(title string, run func(Scale, int64) ([]*StorageResult, error), label func(*StorageResult) string) func(Scale, []int64) (string, error) {
	return func(sc Scale, seeds []int64) (string, error) {
		var runs [][]*StorageResult
		for _, s := range seeds {
			rows, err := run(sc, s)
			if err != nil {
				return "", err
			}
			runs = append(runs, rows)
		}
		return renderStorageMulti(title, runs, label), nil
	}
}

// renderStorageMulti aggregates repeated runs of the same configuration
// list: runs[s][i] is configuration i at seed s, and label names
// configuration i from its first run.
func renderStorageMulti(title string, runs [][]*StorageResult, label func(*StorageResult) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (%d seeds, mean±sd)\n", title, len(runs))
	fmt.Fprintf(&b, "%-12s", "config")
	for _, c := range storageColumns {
		fmt.Fprintf(&b, " %14s", c.name)
	}
	fmt.Fprintln(&b)
	for i, first := range runs[0] {
		fmt.Fprintf(&b, "%-12s", label(first))
		for _, c := range storageColumns {
			var vals []float64
			for s := range runs {
				if i < len(runs[s]) && runs[s][i] != nil {
					vals = append(vals, c.get(runs[s][i]))
				}
			}
			fmt.Fprintf(&b, " %14s", summarize(vals))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
