// Package experiments reproduces every table and figure of the paper's
// evaluation (section 5): the no-diversion baseline, Tables 1-4, Figures
// 2-8, plus the Pastry routing-property measurements of section 2.1.
// Each experiment has a Run function returning structured results and a
// Render function producing the paper-style text table or series;
// Registry lists them, with the ablations, in past-bench's order.
package experiments

import (
	"fmt"
	"math/rand"

	"past/internal/cache"
	"past/internal/metrics"
	"past/internal/past"
	"past/internal/pastry"
	"past/internal/stats"
	"past/internal/trace"
)

// MB is a megabyte, the unit of Table 1.
const MB = 1 << 20

// CapDist is a node-capacity distribution of Table 1 (values in MB; they
// are rescaled so the workload's storage demand overshoots the system
// capacity by the paper's ratio).
type CapDist struct {
	Name   string
	M      float64 // mean
	Sigma  float64 // standard deviation
	Lo, Hi float64 // truncation bounds
}

// Distributions d1-d4 of Table 1.
var (
	D1 = CapDist{Name: "d1", M: 27, Sigma: 10.8, Lo: 2, Hi: 51}
	D2 = CapDist{Name: "d2", M: 27, Sigma: 9.6, Lo: 4, Hi: 49}
	D3 = CapDist{Name: "d3", M: 27, Sigma: 54, Lo: 6, Hi: 48}
	D4 = CapDist{Name: "d4", M: 27, Sigma: 54, Lo: 1, Hi: 53}
)

// AllDists lists the Table 1 distributions in order.
var AllDists = []CapDist{D1, D2, D3, D4}

// Sample draws n capacities (bytes) with the distribution's shape,
// scaled by factor s (1 reproduces the paper's MB values).
func (d CapDist) Sample(r *rand.Rand, n int, s float64) []int64 {
	tn := stats.TruncNormal{Mean: d.M * s * MB, Sigma: d.Sigma * s * MB, Lo: d.Lo * s * MB, Hi: d.Hi * s * MB}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(tn.Sample(r))
	}
	return out
}

// DefaultOvershoot is the storage-demand-to-capacity ratio that drives
// utilization toward 100% by the end of a run.
//
// Calibration note: the paper's nominal ratio is 1.53 (18.7 GB of unique
// content x k=5 = 93.5 GB of replica demand against 61 GB of capacity,
// Table 1), yet it ends at 98.2% utilization with only 0.7% failed
// insertions — consistent only if the ~0.7% largest files carried the
// ~36% of bytes that had to be shed. Its real trace had exactly such a
// tail. Our lognormal tail (33% of bytes in the top 0.7% of files) sheds
// slightly less, so the nominal 1.53 leaves ~2% residual over-demand and
// pins the run at 100% utilization with mass small-file failures — a
// shape the paper never exhibits. An overshoot of 1.15 reproduces the
// paper's equilibrium (measured at tiny scale: 0.5% failures, 99.7%
// utilization, 15.9% replica diversion vs the paper's 0.7%/98.2%/16.1%).
const DefaultOvershoot = 1.15

// Published mean file sizes; with the Table 1 capacities these fix the
// unique-file count a run needs to reach the overshoot ratio.
const (
	webMeanSize = 10_517
	fsMeanSize  = 88_233
)

func (k WorkloadKind) meanSize() float64 {
	if k == FSWorkload {
		return fsMeanSize
	}
	return webMeanSize
}

// filesFor computes the unique-file count whose expected storage demand
// (k replicas each) overshoots the system capacity by the given ratio.
// Scaling node count down therefore scales the trace down with it while
// preserving the paper's capacity-to-file-size ratios exactly — the
// quantity the storage-management dynamics depend on. At the paper's
// 2250 nodes this yields ~1.79M web files (paper: 1.86M inserted).
func filesFor(d CapDist, nodes, k int, capScale float64, meanSize, overshoot float64) int {
	totalCap := float64(nodes) * d.M * capScale * MB
	return int(overshoot * totalCap / (float64(k) * meanSize))
}

// Scale bundles the experiment sizing knobs. File counts derive from
// node counts via the overshoot ratio.
type Scale struct {
	Name string
	// Nodes is the number of PAST nodes (paper: 2250).
	Nodes int
	// CacheNodes sizes the caching experiment's network.
	CacheNodes int
	// Clients for the caching experiment (paper: 775, at 8 sites).
	Clients int
}

// Predefined scales. Tiny keeps unit tests tolerable; Bench is
// past-bench's default; Full is the paper's.
var (
	ScaleTiny  = Scale{Name: "tiny", Nodes: 60, CacheNodes: 60, Clients: 96}
	ScaleBench = Scale{Name: "bench", Nodes: 300, CacheNodes: 250, Clients: 775}
	ScaleFull  = Scale{Name: "full", Nodes: 2250, CacheNodes: 2250, Clients: 775}
)

// ScaleByName resolves a scale preset.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return ScaleTiny, nil
	case "bench":
		return ScaleBench, nil
	case "full":
		return ScaleFull, nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (tiny|bench|full)", name)
}

// WorkloadKind selects which of the paper's two workloads drives a
// storage experiment.
type WorkloadKind int

// Workload kinds.
const (
	// WebWorkload is the NLANR-like web-proxy workload.
	WebWorkload WorkloadKind = iota
	// FSWorkload is the filesystem-scan workload (Figure 7 uses it with
	// capacities scaled x10, which the overshoot scaling supersedes).
	FSWorkload
)

func (k WorkloadKind) String() string {
	if k == FSWorkload {
		return "filesystem"
	}
	return "web"
}

func (k WorkloadKind) sizes() stats.SizeDist {
	if k == FSWorkload {
		return trace.FilesystemSizes()
	}
	return trace.NLANRSizes()
}

// pastConfig assembles a past.Config from experiment knobs.
func pastConfig(b, l, k int, tpri, tdiv float64, retries int, policy cache.Policy) past.Config {
	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: b, L: l}
	cfg.K = k
	cfg.TPri = tpri
	cfg.TDiv = tdiv
	cfg.MaxRetries = retries
	cfg.CachePolicy = policy
	return cfg
}

// standardConfig is the section 5 setup every run shares unless it
// sweeps a knob: b=4, l=32, k=5, tpri=0.1, tdiv=0.05, three re-salts.
func standardConfig(policy cache.Policy) past.Config {
	return pastConfig(4, 32, 5, 0.1, 0.05, 3, policy)
}

// table1Cluster builds a section 5 cluster of n nodes sharing cfg: node
// capacities are drawn from d, scaled by capScale, at seed^0xCAFE, and
// the cluster is joined at seed. A collector sampling every
// sampleEvery-th insert watches its storage.
func table1Cluster(cfg past.Config, n int, d CapDist, capScale float64, seed int64, sampleEvery int) (*past.Cluster, *metrics.Collector, error) {
	caps := d.Sample(rand.New(rand.NewSource(seed^0xCAFE)), n, capScale)
	var total int64
	for _, c := range caps {
		total += c
	}
	col := metrics.NewCollector(total, sampleEvery)
	cfg.Monitor = col
	cluster, err := past.NewCluster(past.ClusterSpec{
		N:        n,
		Cfg:      cfg,
		Capacity: func(i int, _ *rand.Rand) int64 { return caps[i] },
		Seed:     seed,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: cluster: %w", err)
	}
	return cluster, col, nil
}

// insertSpec is how every run inserts trace file ev.File: named after
// it and salted File+1, so a file diversion's re-salt (an increment)
// stays deterministic.
func insertSpec(ev trace.Event) past.InsertSpec {
	return past.InsertSpec{Name: trace.FileName(ev.File), Size: ev.Size, Salt: uint64(ev.File) + 1}
}

// insertTrace issues the inserts of w in order, each from a client node
// drawn with rng, and hands each result to done (if set) before the
// next client is drawn.
func insertTrace(c *past.Cluster, w *trace.Workload, rng *rand.Rand, done func(trace.Event, *past.InsertResult) error) error {
	for _, ev := range w.Events {
		res, err := c.Nodes[rng.Intn(len(c.Nodes))].Insert(insertSpec(ev))
		if err != nil {
			return fmt.Errorf("experiments: insert %d: %w", ev.File, err)
		}
		if done != nil {
			if err := done(ev, res); err != nil {
				return err
			}
		}
	}
	return nil
}
