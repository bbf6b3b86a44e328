// Package past_bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks, plus the ablation benches DESIGN.md calls
// out. Each benchmark runs a complete trace-driven experiment and
// reports the headline quantities (utilization, failure rate, hit rate,
// hops) as custom metrics, so `go test -bench=. -benchmem` produces the
// full results table. Benchmarks default to the tiny scale; use
// cmd/past-bench -scale=bench|full for larger runs.
package past_bench

import (
	"fmt"
	"testing"

	"past/internal/cache"
	"past/internal/experiments"
	"past/internal/rs"
	"past/internal/stats"
)

const benchSeed = 1

func reportStorage(b *testing.B, r *experiments.StorageResult) {
	b.ReportMetric(100*r.FinalUtil, "util%")
	b.ReportMetric(r.FailPct, "fail%")
	b.ReportMetric(r.ReplicaDiversionPct, "repdiv%")
	b.ReportMetric(r.FileDiversionPct, "filediv%")
}

// BenchmarkTable1 samples the four node-capacity distributions.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable1(2250, benchSeed)
		if len(rows) != 4 {
			b.Fatal("bad table 1")
		}
	}
}

// BenchmarkBaselineNoDiversion reproduces the section 5.1 baseline:
// tpri=1, tdiv=0, no re-salting (paper: 51.1% failures, 60.8% util).
func BenchmarkBaselineNoDiversion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Baseline(experiments.ScaleTiny, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		reportStorage(b, r)
	}
}

// BenchmarkTable2 reproduces Table 2: d1-d4 x l in {16,32}.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable2(experiments.ScaleTiny, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		reportStorage(b, rows[len(rows)-1])
	}
}

// BenchmarkTable3 reproduces Table 3 and Figure 2 (tpri sweep).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable3(experiments.ScaleTiny, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		reportStorage(b, rows[2]) // tpri=0.1, the paper's default
	}
}

// BenchmarkTable4 reproduces Table 4 and Figure 3 (tdiv sweep).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable4(experiments.ScaleTiny, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		reportStorage(b, rows[1]) // tdiv=0.05, the paper's default
	}
}

// BenchmarkFig4 regenerates the standard run behind Figures 4, 5, and 6.
func BenchmarkFig4(b *testing.B) { benchStandard(b, experiments.WebWorkload) }

// BenchmarkFig5 is the same run as Figure 4 (the figures share it).
func BenchmarkFig5(b *testing.B) { benchStandard(b, experiments.WebWorkload) }

// BenchmarkFig6 is the same run; its render is the failure scatter.
func BenchmarkFig6(b *testing.B) { benchStandard(b, experiments.WebWorkload) }

// BenchmarkFig7 runs the filesystem workload with capacities x10.
func BenchmarkFig7(b *testing.B) { benchStandard(b, experiments.FSWorkload) }

func benchStandard(b *testing.B, kind experiments.WorkloadKind) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.StandardRun(experiments.ScaleTiny, kind, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		reportStorage(b, r)
	}
}

// BenchmarkFig8 reproduces the caching experiment: GD-S vs LRU vs no
// caching (paper: GD-S >= LRU; hops below no-caching even at 99% util).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig8(experiments.ScaleTiny, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Config.Policy {
			case cache.GDS:
				b.ReportMetric(r.HitRate, "gds-hit")
				b.ReportMetric(r.MeanHops, "gds-hops")
			case cache.None:
				b.ReportMetric(r.MeanHops, "none-hops")
			}
		}
	}
}

// BenchmarkRouteHops measures the section 2.1 routing properties.
func BenchmarkRouteHops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunRouting(experiments.ScaleTiny, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanHops, "hops")
		b.ReportMetric(r.NearestPct, "nearest%")
	}
}

// BenchmarkAblationLeafSetSize varies l (Table 2 discussion: larger leaf
// sets widen the local load-balancing scope; beyond 32 the paper saw no
// further gain).
func BenchmarkAblationLeafSetSize(b *testing.B) {
	for _, l := range []int{8, 16, 32, 64} {
		b.Run(benchName("l", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunStorage(experiments.StorageConfig{
					Nodes: experiments.ScaleTiny.Nodes,
					Dist:  experiments.D1, L: l,
					TPri: 0.1, TDiv: 0.05, MaxRetries: 3,
					Workload: experiments.WebWorkload, Seed: benchSeed,
				})
				if err != nil {
					b.Fatal(err)
				}
				reportStorage(b, r)
			}
		})
	}
}

// BenchmarkAblationDivertPolicy compares the paper's max-free-space
// diverted-replica target choice against a random eligible node
// (section 3.3.1, policy 2).
func BenchmarkAblationDivertPolicy(b *testing.B) {
	for _, random := range []bool{false, true} {
		name := "maxfree"
		if random {
			name = "random"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunStorage(experiments.StorageConfig{
					Nodes: experiments.ScaleTiny.Nodes,
					Dist:  experiments.D1, L: 32,
					TPri: 0.1, TDiv: 0.05, MaxRetries: 3,
					Workload: experiments.WebWorkload, Seed: benchSeed,
					RandomDivert: random,
				})
				if err != nil {
					b.Fatal(err)
				}
				reportStorage(b, r)
			}
		})
	}
}

// BenchmarkAblationCachePolicy compares all four cache policies on the
// caching workload (section 4).
func BenchmarkAblationCachePolicy(b *testing.B) {
	for _, pol := range []cache.Policy{cache.GDS, cache.LRU, cache.FIFO, cache.None} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunCaching(experiments.CachingConfig{
					Nodes:   experiments.ScaleTiny.CacheNodes,
					Clients: experiments.ScaleTiny.Clients,
					Sites:   experiments.ScaleTiny.Sites,
					Policy:  pol,
					Seed:    benchSeed,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.HitRate, "hit")
				b.ReportMetric(r.MeanHops, "hops")
			}
		})
	}
}

// BenchmarkFragmentation runs the section 3.4/3.6 experiment: at ~73%
// utilization, large files that fail whole-file insertion succeed as
// k=5 fragments, and as 8 x 64 KiB stripes on a cluster storing files
// rs(8,4)-coded, which cost ~30% of the replicated fragments' bytes.
func BenchmarkFragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFragmentation(experiments.ScaleTiny, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.WholeOK), "whole-ok")
		b.ReportMetric(float64(r.FragOK), "frag-ok")
		b.ReportMetric(float64(r.CodedOK), "coded-ok")
	}
}

// BenchmarkReplicationVsRS quantifies the section 3.6 trade-off: the
// storage overhead and encode/decode cost of Reed-Solomon coding versus
// whole-file k-replication for equal failure tolerance (m=4 losses).
func BenchmarkReplicationVsRS(b *testing.B) {
	r := stats.NewRand(benchSeed)
	file := make([]byte, 1<<20)
	r.Read(file)

	b.Run("replication-k5", func(b *testing.B) {
		b.SetBytes(int64(len(file)))
		b.ReportMetric(5.0, "storage-x")
		for i := 0; i < b.N; i++ {
			for rep := 0; rep < 5; rep++ {
				dst := make([]byte, len(file))
				copy(dst, file)
			}
		}
	})
	b.Run("rs-8+4", func(b *testing.B) {
		enc, err := rs.New(8, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(file)))
		b.ReportMetric(12.0/8.0, "storage-x")
		for i := 0; i < b.N; i++ {
			shards, err := enc.Split(file)
			if err != nil {
				b.Fatal(err)
			}
			if err := enc.Encode(shards); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchName(prefix string, v int) string {
	return fmt.Sprintf("%s=%d", prefix, v)
}
