package experiments

import (
	"fmt"
	"slices"
	"strings"

	"past/internal/cache"
	"past/internal/metrics"
	"past/internal/plot"
)

// pointsToSeries converts a metrics series to a plottable one (x in
// percent).
func pointsToSeries(name string, pts []metrics.Point) plot.Series {
	s := plot.Series{Name: name}
	for _, p := range pts {
		s.X = append(s.X, 100*p.Util)
		s.Y = append(s.Y, p.Value)
	}
	return s
}

// StandardRun is the canonical storage run (tpri=0.1, tdiv=0.05, d1,
// l=32) whose collector yields Figures 4, 5, and 6 for the web workload
// and Figure 7 for the filesystem workload.
func StandardRun(sc Scale, kind WorkloadKind, seed int64) (*StorageResult, error) {
	cfg := standardStorage(sc, seed)
	cfg.Workload = kind
	if kind == FSWorkload {
		// The paper increased every node's capacity by a factor of 10
		// for the filesystem workload (section 5.1, Figure 7).
		cfg.CapScale = 10
	}
	return RunStorage(cfg)
}

// standardStorage describes the standard run on the web workload; every
// storage table and ablation varies one knob of it.
func standardStorage(sc Scale, seed int64) StorageConfig {
	return StorageConfig{Nodes: sc.Nodes, TPri: 0.1, TDiv: 0.05, MaxRetries: 3, Seed: seed}
}

// vary runs standardStorage once per value, set applying the value.
func vary[T any](sc Scale, seed int64, vals []T, set func(*StorageConfig, T)) ([]*StorageResult, error) {
	var out []*StorageResult
	for _, v := range vals {
		cfg := standardStorage(sc, seed)
		set(&cfg, v)
		r, err := RunStorage(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderFig2 renders the cumulative-failure-ratio-vs-utilization curves
// of Figure 2 from the Table 3 sweep (one curve per tpri).
func RenderFig2(rows []*StorageResult) string {
	return renderFailureCurves("Figure 2: cumulative failure ratio vs utilization (tpri sweep)",
		"tpri", rows, func(r *StorageResult) float64 { return r.Config.TPri })
}

// RenderFig3 renders Figure 3 from the Table 4 sweep (one curve per
// tdiv).
func RenderFig3(rows []*StorageResult) string {
	return renderFailureCurves("Figure 3: cumulative failure ratio vs utilization (tdiv sweep)",
		"tdiv", rows, func(r *StorageResult) float64 { return r.Config.TDiv })
}

func renderFailureCurves(title, param string, rows []*StorageResult, val func(*StorageResult) float64) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	fmt.Fprintf(&b, "%8s", "util%")
	for _, r := range rows {
		fmt.Fprintf(&b, " %12s", fmt.Sprintf("%s=%g", param, val(r)))
	}
	fmt.Fprintln(&b)
	curves := make([][]metrics.Point, len(rows))
	for i, r := range rows {
		curves[i] = r.Collector.CumulativeFailureByUtil(20)
	}
	for step := 1; step <= 20; step++ {
		util := float64(step) / 20
		fmt.Fprintf(&b, "%7.0f%%", util*100)
		for _, c := range curves {
			fmt.Fprintf(&b, " %12s", fmtAt(c, util))
		}
		fmt.Fprintln(&b)
	}
	// The paper draws these on a log y-axis.
	ch := plot.Chart{XLabel: "utilization %", YLabel: "cumulative failure ratio", LogY: true}
	for _, r := range rows {
		ch.Series = append(ch.Series, pointsToSeries(
			fmt.Sprintf("%s=%g", param, val(r)),
			r.Collector.CumulativeFailureByUtil(100)))
	}
	b.WriteString(ch.Render())
	return b.String()
}

// fmtAt finds the last series value at or below util.
func fmtAt(pts []metrics.Point, util float64) string {
	v := -1.0
	for _, p := range pts {
		if p.Util <= util+1e-9 {
			v = p.Value
		}
	}
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.5f", v)
}

// RenderFig4 renders Figure 4: the cumulative ratio of files diverted
// once, twice, and three times, and of insertion failures, against
// utilization.
func RenderFig4(r *StorageResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 4: file diversions and insertion failures vs utilization (tpri=0.1, tdiv=0.05)")
	fmt.Fprintf(&b, "%8s %12s %12s %12s %12s\n", "util%", "1 redirect", "2 redirects", "3 redirects", "failures")
	c1 := r.Collector.CumulativeDiversionByUtil(20, 1)
	c2 := r.Collector.CumulativeDiversionByUtil(20, 2)
	c3 := r.Collector.CumulativeDiversionByUtil(20, 3)
	cf := r.Collector.CumulativeFailureByUtil(20)
	for step := 1; step <= 20; step++ {
		util := float64(step) / 20
		fmt.Fprintf(&b, "%7.0f%% %12s %12s %12s %12s\n", util*100,
			fmtAt(c1, util), fmtAt(c2, util), fmtAt(c3, util), fmtAt(cf, util))
	}
	b.WriteString("paper: file diversions negligible below 83% utilization\n")
	return b.String()
}

// RenderFig5 renders Figure 5: the cumulative ratio of replica
// diversions to stored replicas against utilization.
func RenderFig5(r *StorageResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 5: cumulative replica-diversion ratio vs utilization (tpri=0.1, tdiv=0.05)")
	fmt.Fprintf(&b, "%8s %14s\n", "util%", "diverted ratio")
	series := r.Collector.DivertedSeries
	// Thin the series to ~20 rows.
	printed := -1.0
	for _, p := range series {
		if p.Util-printed >= 0.05 {
			fmt.Fprintf(&b, "%7.1f%% %14.4f\n", 100*p.Util, p.Ratio)
			printed = p.Util
		}
	}
	if len(series) > 0 {
		last := series[len(series)-1]
		fmt.Fprintf(&b, "%7.1f%% %14.4f (final)\n", 100*last.Util, last.Ratio)
	}
	ch := plot.Chart{XLabel: "utilization %", YLabel: "diverted / stored replicas"}
	s := plot.Series{Name: "replica diversion ratio"}
	for _, p := range series {
		s.X = append(s.X, 100*p.Util)
		s.Y = append(s.Y, p.Ratio)
	}
	ch.Series = []plot.Series{s}
	b.WriteString(ch.Render())
	b.WriteString("paper: <10% of stored replicas diverted at 80% utilization\n")
	return b.String()
}

// RenderFig6 renders Figure 6 (and, for the filesystem workload,
// Figure 7): the sizes of failed insertions against the utilization at
// which they failed, plus the cumulative failure ratio.
func RenderFig6(r *StorageResult, title string) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	scatter := r.Collector.FailedInsertScatter()

	// Scatter summary per utilization decile: count, min size, median
	// size, max size of failures.
	fmt.Fprintf(&b, "%10s %8s %12s %12s %12s %10s\n",
		"util range", "fails", "min size", "median size", "max size", "cum. fail")
	cf := r.Collector.CumulativeFailureByUtil(20)
	for d := 0; d < 20; d++ {
		lo, hi := float64(d)/20, float64(d+1)/20
		var sizes []int64
		for _, p := range scatter {
			if p.Util >= lo && p.Util < hi {
				sizes = append(sizes, int64(p.Value))
			}
		}
		if len(sizes) == 0 {
			continue
		}
		mn, md, mx := sizeStats(sizes)
		fmt.Fprintf(&b, "%4.0f-%3.0f%% %8d %12d %12d %12d %10s\n",
			lo*100, hi*100, len(sizes), mn, md, mx, fmtAt(cf, hi))
	}
	fmt.Fprintf(&b, "first failure of an average-size file: %s\n", firstAvgFailure(r))

	// The paper's scatter: failed-insert sizes (log scale) against the
	// utilization at which they failed.
	sc := plot.Series{Name: "failed insertion", Marker: '.'}
	for _, p := range scatter {
		sc.X = append(sc.X, 100*p.Util)
		sc.Y = append(sc.Y, p.Value)
	}
	ch := plot.Chart{XLabel: "utilization %", YLabel: "failed file size (bytes)", LogY: true,
		Series: []plot.Series{sc}}
	b.WriteString(ch.Render())
	return b.String()
}

func sizeStats(sizes []int64) (mn, md, mx int64) {
	sorted := slices.Clone(sizes)
	slices.Sort(sorted)
	return sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1]
}

// firstAvgFailure reports the utilization at which a file of at most the
// workload's mean size (10,517 B for NLANR) first failed — the paper
// reports 90.5%.
func firstAvgFailure(r *StorageResult) string {
	var meanSize float64
	if r.Totals.Total > 0 {
		var sum float64
		for _, s := range r.Collector.Inserts {
			sum += float64(s.Size)
		}
		meanSize = sum / float64(r.Totals.Total)
	}
	for _, s := range r.Collector.Inserts {
		if !s.OK && float64(s.Size) <= meanSize {
			return fmt.Sprintf("%.1f%% utilization (size %d <= mean %.0f; paper: 90.5%%)",
				100*s.Util, s.Size, meanSize)
		}
	}
	return "never"
}

// Fig8Policies are the cache policies Figure 8 compares.
var Fig8Policies = []cache.Policy{cache.GDS, cache.LRU, cache.None}

// RunFig8 replays the caching experiment once per policy.
func RunFig8(sc Scale, seed int64) ([]*CachingResult, error) {
	return cachingRuns(sc, seed, Fig8Policies)
}

// cachingRuns replays the caching experiment at sc once per policy.
func cachingRuns(sc Scale, seed int64, policies []cache.Policy) ([]*CachingResult, error) {
	var out []*CachingResult
	for _, pol := range policies {
		r, err := RunCaching(CachingConfig{Nodes: sc.CacheNodes, Clients: sc.Clients, Policy: pol, Seed: seed})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderFig8 renders Figure 8: global cache hit rate and mean routing
// hops against utilization for GD-S, LRU, and no caching.
func RenderFig8(rows []*CachingResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 8: cache hit ratio and mean routing hops vs utilization")
	fmt.Fprintf(&b, "%8s", "util%")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10s %10s", r.Config.Policy.String()+":hit", r.Config.Policy.String()+":hops")
	}
	fmt.Fprintln(&b)
	buckets := len(rows[0].Series.BucketLo)
	for i := 0; i < buckets; i++ {
		any := false
		for _, r := range rows {
			if r.Series.Count[i] > 0 {
				any = true
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(&b, "%7.0f%%", rows[0].Series.BucketLo[i]*100)
		for _, r := range rows {
			if r.Series.Count[i] == 0 {
				fmt.Fprintf(&b, " %10s %10s", "-", "-")
			} else {
				fmt.Fprintf(&b, " %10.3f %10.2f", r.Series.HitRate[i], r.Series.Hops[i])
			}
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "overall:")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s hit=%.3f hops=%.2f", r.Config.Policy, r.HitRate, r.MeanHops)
	}
	fmt.Fprintln(&b)

	hitChart := plot.Chart{XLabel: "utilization %", YLabel: "global cache hit rate"}
	hopChart := plot.Chart{XLabel: "utilization %", YLabel: "mean routing hops"}
	for _, r := range rows {
		hs := plot.Series{Name: r.Config.Policy.String()}
		ps := plot.Series{Name: r.Config.Policy.String()}
		for i, lo := range r.Series.BucketLo {
			if r.Series.Count[i] == 0 {
				continue
			}
			hs.X = append(hs.X, 100*lo)
			hs.Y = append(hs.Y, r.Series.HitRate[i])
			ps.X = append(ps.X, 100*lo)
			ps.Y = append(ps.Y, r.Series.Hops[i])
		}
		if r.Config.Policy != cache.None {
			hitChart.Series = append(hitChart.Series, hs)
		}
		hopChart.Series = append(hopChart.Series, ps)
	}
	b.WriteString(hitChart.Render())
	b.WriteString(hopChart.Render())
	b.WriteString("paper: GD-S >= LRU hit rate; hops with caching below no-caching even at 99% utilization\n")
	return b.String()
}
