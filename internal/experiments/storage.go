package experiments

import (
	"math/rand"

	"past/internal/cache"
	"past/internal/metrics"
	"past/internal/past"
	"past/internal/store"
	"past/internal/trace"
)

// StorageConfig parameterizes one trace-driven storage-management run
// (the experiments of section 5.1). Every run uses b=4 and k=5, and
// replays as many unique files as overshoot the (capacity-scaled)
// Table 1 capacity by DefaultOvershoot.
type StorageConfig struct {
	Nodes int
	Dist  CapDist
	// CapScale multiplies the Table 1 capacities (1 reproduces the
	// paper's web-workload setup; the filesystem experiment of Figure 7
	// uses 10, exactly as the paper did).
	CapScale float64

	L          int
	TPri, TDiv float64
	MaxRetries int

	Workload WorkloadKind
	Seed     int64
	// RandomDivert enables the ablation that replaces max-free-space
	// diverted-replica target selection with a random eligible node.
	RandomDivert bool
}

// withDefaults fills paper defaults for unset knobs: l=32, d1, unscaled.
// TPri, TDiv and MaxRetries are taken as given, so the zeroes of the
// no-diversion baseline stay expressible.
func (c StorageConfig) withDefaults() StorageConfig {
	if c.L == 0 {
		c.L = 32
	}
	if c.Dist.Name == "" {
		c.Dist = D1
	}
	if c.CapScale == 0 {
		c.CapScale = 1
	}
	return c
}

// files is the run's unique-file count.
func (c StorageConfig) files() int {
	return filesFor(c.Dist, c.Nodes, 5, c.CapScale, c.Workload.meanSize(), DefaultOvershoot)
}

// StorageResult carries everything the tables and figures derive from a
// storage run.
type StorageResult struct {
	Config    StorageConfig
	Collector *metrics.Collector
	Totals    metrics.InsertTotals

	// FinalUtil is the global storage utilization at the end of the
	// trace.
	FinalUtil float64
	// FileDiversionPct is the percentage of successful inserts that
	// required at least one file diversion (Table 2's "File diversion").
	FileDiversionPct float64
	// ReplicaDiversionPct is the percentage of stored replicas that are
	// diverted replicas at the end of the run (Table 2's "Replica
	// diversion").
	ReplicaDiversionPct float64
	// SuccessPct and FailPct are Table 2's first two columns.
	SuccessPct, FailPct float64
}

// RunStorage replays an insert-only workload against a fresh cluster.
func RunStorage(cfg StorageConfig) (*StorageResult, error) {
	cfg = cfg.withDefaults()
	files := cfg.files()
	w := trace.InsertOnly(files, cfg.Workload.sizes(), cfg.Seed)

	pcfg := pastConfig(4, cfg.L, 5, cfg.TPri, cfg.TDiv, cfg.MaxRetries, cache.None)
	pcfg.RandomDivert = cfg.RandomDivert
	cluster, col, err := table1Cluster(pcfg, cfg.Nodes, cfg.Dist, cfg.CapScale, cfg.Seed, files/500+1)
	if err != nil {
		return nil, err
	}
	util := col.Utilization() // when the next insert is issued
	err = insertTrace(cluster, w, rand.New(rand.NewSource(cfg.Seed^0xC11E17)), func(ev trace.Event, res *past.InsertResult) error {
		col.RecordInsert(util, ev.Size, res.Attempts, res.OK, res.Diverted)
		util = col.Utilization()
		return nil
	})
	if err != nil {
		return nil, err
	}

	r := &StorageResult{
		Config:    cfg,
		Collector: col,
		Totals:    col.Totals(),
		FinalUtil: col.Utilization(),
	}
	if r.Totals.Total > 0 {
		r.SuccessPct = 100 * float64(r.Totals.Succeeded) / float64(r.Totals.Total)
		r.FailPct = 100 * float64(r.Totals.Failed) / float64(r.Totals.Total)
	}
	if r.Totals.Succeeded > 0 {
		r.FileDiversionPct = 100 * float64(r.Totals.FileDiverted) / float64(r.Totals.Succeeded)
	}

	// Replica diversion ratio: fraction of stored replicas that are
	// diverted, from a final scan of every node's file table.
	var total, diverted int64
	for _, n := range cluster.Nodes {
		entries, _ := n.StoreSnapshot()
		for _, e := range entries {
			total++
			if e.Kind == store.DivertedIn {
				diverted++
			}
		}
	}
	if total > 0 {
		r.ReplicaDiversionPct = 100 * float64(diverted) / float64(total)
	}
	return r, nil
}
