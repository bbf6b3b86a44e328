package experiments

import (
	"fmt"
	"strings"

	"past/internal/cache"
	"past/internal/loadgen"
)

// Experiment is one section of past-bench's output: a table, figure or
// ablation of the paper's evaluation.
type Experiment struct {
	ID string
	// Run renders the experiment at one scale and seed.
	Run func(sc Scale, seed int64) (string, error)
	// Seeds, when set, repeats the experiment's storage sweep once per
	// seed and renders mean±sd per row (past-bench -seeds N).
	Seeds func(sc Scale, seeds []int64) (string, error)
}

// Registry returns every experiment in past-bench's output order. The
// entries share one memoized StandardRun, which Figures 4, 5 and 6 and
// the ablation read, so a process builds one registry and runs from it.
func Registry() []Experiment {
	type key struct {
		sc   Scale
		seed int64
	}
	var stdKey key
	var std *StorageResult
	standard := func(sc Scale, seed int64) (*StorageResult, error) {
		if std != nil && stdKey == (key{sc, seed}) {
			return std, nil
		}
		r, err := StandardRun(sc, WebWorkload, seed)
		if err != nil {
			return nil, err
		}
		std, stdKey = r, key{sc, seed}
		return r, nil
	}
	fromStandard := func(render func(*StorageResult) string) func(Scale, int64) (string, error) {
		return func(sc Scale, seed int64) (string, error) {
			r, err := standard(sc, seed)
			if err != nil {
				return "", err
			}
			return render(r), nil
		}
	}
	baseline := func(sc Scale, seed int64) ([]*StorageResult, error) {
		r, err := Baseline(sc, seed)
		return []*StorageResult{r}, err
	}

	return []Experiment{
		{ID: "fig1", Run: func(_ Scale, seed int64) (string, error) { return RenderFig1(seed) }},
		{ID: "table1", Run: func(_ Scale, seed int64) (string, error) {
			return RenderTable1(RunTable1(2250, seed)), nil
		}},
		{ID: "baseline",
			Run: render(Baseline, RenderBaseline),
			Seeds: sweep("baseline", baseline,
				func(*StorageResult) string { return "baseline" })},
		{ID: "table2",
			Run: render(RunTable2, RenderTable2),
			Seeds: sweep("table2", RunTable2, func(r *StorageResult) string {
				return fmt.Sprintf("%s,l=%d", r.Config.Dist.Name, r.Config.L)
			})},
		{ID: "table3",
			Run: render(RunTable3, func(rows []*StorageResult) string {
				return RenderTable3(rows) + "\n" + RenderFig2(rows)
			}),
			Seeds: sweep("table3", RunTable3,
				func(r *StorageResult) string { return fmt.Sprintf("tpri=%g", r.Config.TPri) })},
		{ID: "table4",
			Run: render(RunTable4, func(rows []*StorageResult) string {
				return RenderTable4(rows) + "\n" + RenderFig3(rows)
			}),
			Seeds: sweep("table4", RunTable4,
				func(r *StorageResult) string { return fmt.Sprintf("tdiv=%g", r.Config.TDiv) })},
		{ID: "fig4", Run: fromStandard(RenderFig4)},
		{ID: "fig5", Run: fromStandard(RenderFig5)},
		{ID: "fig6", Run: fromStandard(func(r *StorageResult) string {
			return RenderFig6(r, "Figure 6: insertion failures vs utilization (NLANR-like workload)")
		})},
		{ID: "fig7", Run: render(func(sc Scale, seed int64) (*StorageResult, error) {
			return StandardRun(sc, FSWorkload, seed)
		}, func(r *StorageResult) string {
			return RenderFig6(r, "Figure 7: insertion failures vs utilization (filesystem workload, capacities x10)")
		})},
		{ID: "fig8", Run: render(RunFig8, RenderFig8)},
		{ID: "routing", Run: render(RunRouting, RenderRouting)},
		{ID: "frag", Run: render(RunFragmentation, RenderFragmentation)},
		{ID: "overhead", Run: render(RunOverhead, RenderOverhead)},
		{ID: "overload", Run: render(func(_ Scale, seed int64) (*SweepResult, error) {
			sc := loadgen.DefaultSimConfig()
			sc.Nodes, sc.NodeRate, sc.Requests, sc.Seed = 10, 20, 1200, seed
			return RunSweep(sc, OverloadRates, ShedModes)
		}, RenderOverload)},
		{ID: "ablation", Run: func(sc Scale, seed int64) (string, error) {
			std, err := standard(sc, seed)
			if err != nil {
				return "", err
			}
			return ablation(sc, seed, std)
		}},
	}
}

// render pairs an experiment's run with its renderer.
func render[R any](run func(Scale, int64) (R, error), show func(R) string) func(Scale, int64) (string, error) {
	return func(sc Scale, seed int64) (string, error) {
		r, err := run(sc, seed)
		if err != nil {
			return "", err
		}
		return show(r), nil
	}
}

// Select resolves past-bench's -exp value, one experiment id or "all",
// against a registry. With multi set (past-bench -seeds N, N > 1) only
// experiments with a multi-seed form qualify: "all" keeps those, and
// any other id is an error naming them.
func Select(reg []Experiment, id string, multi bool) ([]Experiment, error) {
	var ids []string
	var out []Experiment
	for _, e := range reg {
		if multi && e.Seeds == nil {
			continue
		}
		ids = append(ids, e.ID)
		if id == "all" || id == e.ID {
			out = append(out, e)
		}
	}
	if len(out) > 0 {
		return out, nil
	}
	if multi {
		return nil, fmt.Errorf("-seeds repeats only %s (or all of them), not %q", strings.Join(ids, ", "), id)
	}
	return nil, fmt.Errorf("unknown experiment %q (one of %s, or all)", id, strings.Join(ids, ", "))
}

// ablation varies, one at a time from the standard run std, the design
// choices DESIGN.md section 5 calls out: the leaf-set size l (Table 2
// discussion), max-free-space versus random diverted-replica targets
// (section 3.3.1, policy 2), and the four cache policies (section 4).
func ablation(sc Scale, seed int64, std *StorageResult) (string, error) {
	storage := func(l int, random bool) (*StorageResult, error) {
		if l == std.Config.L && !random {
			return std, nil
		}
		cfg := standardStorage(sc, seed)
		cfg.L, cfg.RandomDivert = l, random
		return RunStorage(cfg)
	}
	var b strings.Builder
	row := func(label string, r *StorageResult) {
		fmt.Fprintf(&b, "%-9s %9.4g %9.4g %9.4g %9.4g\n",
			label, r.FailPct, r.FileDiversionPct, r.ReplicaDiversionPct, 100*r.FinalUtil)
	}
	header := fmt.Sprintf("%-9s %9s %9s %9s %9s\n", "", "Fail%", "FileDiv%", "ReplDiv%", "Util%")

	b.WriteString("Ablation: leaf-set size (d1, tpri=0.1, tdiv=0.05, max-free diversion)\n" + header)
	for _, l := range []int{8, 16, 32, 64} {
		r, err := storage(l, false)
		if err != nil {
			return "", err
		}
		row(fmt.Sprintf("l=%d", l), r)
	}
	b.WriteString("\nAblation: diverted-replica target (d1, l=32, tpri=0.1, tdiv=0.05)\n" + header)
	for _, random := range []bool{false, true} {
		r, err := storage(32, random)
		if err != nil {
			return "", err
		}
		label := "max-free"
		if random {
			label = "random"
		}
		row(label, r)
	}
	b.WriteString("\nAblation: cache policy (caching workload)\n")
	fmt.Fprintf(&b, "%-9s %9s %9s\n", "", "hit", "hops")
	rows, err := cachingRuns(sc, seed, []cache.Policy{cache.GDS, cache.LRU, cache.FIFO, cache.None})
	if err != nil {
		return "", err
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %9.4g %9.4g\n", r.Config.Policy, r.HitRate, r.MeanHops)
	}
	return b.String(), nil
}
