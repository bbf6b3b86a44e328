// Command past-bench regenerates the tables and figures of the PAST
// paper's evaluation (section 5) on the emulated network.
//
// Usage:
//
//	past-bench -exp table2 -scale bench
//	past-bench -exp all -scale tiny
//	past-bench -exp fig8 -scale full     # paper scale: 2250 nodes, ~1.8M files
//
// Experiments: fig1, table1, baseline, table2, table3 (with fig2),
// table4 (with fig3), fig4, fig5, fig6, fig7, fig8, routing, frag,
// overhead, overload, all. Figure 1 (one node's routing state in a
// 64-node b=2, l=8 network) ignores -scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"past/internal/experiments"
	"past/internal/obs"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment id: fig1|table1|baseline|table2|table3|table4|fig4|fig5|fig6|fig7|fig8|routing|frag|overhead|overload|all")
		scale  = flag.String("scale", "bench", "scale preset: tiny|bench|full")
		seed   = flag.Int64("seed", 1, "random seed")
		seeds  = flag.Int("seeds", 1, "repeat the table experiments over N seeds and report mean±sd")
		evPath = flag.String("events", "", "append one JSONL summary event per experiment to this file")
	)
	flag.Parse()

	sc, err := experiments.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var elog *obs.EventLog
	if *evPath != "" {
		f, err := os.Create(*evPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "past-bench:", err)
			os.Exit(2)
		}
		elog = obs.NewEventLog(f)
		defer func() {
			if err := elog.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "past-bench: event log:", err)
			}
			f.Close()
		}()
	}
	if *seeds > 1 {
		if err := runMulti(*exp, sc, *seed, *seeds, elog); err != nil {
			fmt.Fprintln(os.Stderr, "past-bench:", err)
			elog.Close()
			os.Exit(1)
		}
		return
	}
	if err := run(*exp, sc, *seed, elog); err != nil {
		fmt.Fprintln(os.Stderr, "past-bench:", err)
		elog.Close()
		os.Exit(1)
	}
}

// runMulti repeats the table sweeps over several seeds, reporting
// mean±sd per cell.
func runMulti(exp string, sc experiments.Scale, seed0 int64, n int, elog *obs.EventLog) error {
	seedList := make([]int64, n)
	for i := range seedList {
		seedList[i] = seed0 + int64(i)
	}
	type sweep struct {
		id    string
		run   func(int64) ([]*experiments.StorageResult, error)
		label func(*experiments.StorageResult) string
	}
	sweeps := []sweep{
		{"baseline", func(s int64) ([]*experiments.StorageResult, error) {
			r, err := experiments.Baseline(sc, s)
			return []*experiments.StorageResult{r}, err
		}, func(*experiments.StorageResult) string { return "baseline" }},
		{"table2", func(s int64) ([]*experiments.StorageResult, error) { return experiments.RunTable2(sc, s) },
			func(r *experiments.StorageResult) string {
				return fmt.Sprintf("%s,l=%d", r.Config.Dist.Name, r.Config.L)
			}},
		{"table3", func(s int64) ([]*experiments.StorageResult, error) { return experiments.RunTable3(sc, s) },
			func(r *experiments.StorageResult) string { return fmt.Sprintf("tpri=%g", r.Config.TPri) }},
		{"table4", func(s int64) ([]*experiments.StorageResult, error) { return experiments.RunTable4(sc, s) },
			func(r *experiments.StorageResult) string { return fmt.Sprintf("tdiv=%g", r.Config.TDiv) }},
	}
	for _, sw := range sweeps {
		if exp != "all" && exp != sw.id {
			continue
		}
		start := time.Now()
		runs, err := experiments.MultiSeed(seedList, sw.run)
		if err != nil {
			return err
		}
		labels := experiments.StorageLabels(runs[0], sw.label)
		fmt.Printf("==== %s (scale=%s, %d seeds, %.1fs) ====\n%s\n",
			sw.id, sc.Name, n, time.Since(start).Seconds(),
			experiments.RenderStorageMulti(sw.id, labels, runs))
		elog.Emit(obs.Event{
			Kind: "experiment", Op: sw.id, N: time.Since(start).Milliseconds(), OK: true,
			Detail: fmt.Sprintf("scale=%s seeds=%d", sc.Name, n),
		})
	}
	return nil
}

func run(exp string, sc experiments.Scale, seed int64, elog *obs.EventLog) error {
	ids := []string{exp}
	if exp == "all" {
		ids = []string{"fig1", "table1", "baseline", "table2", "table3", "table4",
			"fig4", "fig5", "fig6", "fig7", "fig8", "routing", "frag", "overhead", "overload"}
	}
	// The standard run feeds fig4, fig5, and fig6; cache it.
	var std *experiments.StorageResult
	standard := func() (*experiments.StorageResult, error) {
		if std != nil {
			return std, nil
		}
		var err error
		std, err = experiments.StandardRun(sc, experiments.WebWorkload, seed)
		return std, err
	}

	for _, id := range ids {
		start := time.Now()
		var out string
		switch id {
		case "fig1":
			var err error
			if out, err = experiments.RenderFig1(seed); err != nil {
				return err
			}
		case "table1":
			out = experiments.RenderTable1(experiments.RunTable1(2250, seed))
		case "baseline":
			r, err := experiments.Baseline(sc, seed)
			if err != nil {
				return err
			}
			out = experiments.RenderBaseline(r)
		case "table2":
			rows, err := experiments.RunTable2(sc, seed)
			if err != nil {
				return err
			}
			out = experiments.RenderTable2(rows)
		case "table3":
			rows, err := experiments.RunTable3(sc, seed)
			if err != nil {
				return err
			}
			out = experiments.RenderTable3(rows) + "\n" + experiments.RenderFig2(rows)
		case "table4":
			rows, err := experiments.RunTable4(sc, seed)
			if err != nil {
				return err
			}
			out = experiments.RenderTable4(rows) + "\n" + experiments.RenderFig3(rows)
		case "fig4":
			r, err := standard()
			if err != nil {
				return err
			}
			out = experiments.RenderFig4(r)
		case "fig5":
			r, err := standard()
			if err != nil {
				return err
			}
			out = experiments.RenderFig5(r)
		case "fig6":
			r, err := standard()
			if err != nil {
				return err
			}
			out = experiments.RenderFig6(r, "Figure 6: insertion failures vs utilization (NLANR-like workload)")
		case "fig7":
			r, err := experiments.StandardRun(sc, experiments.FSWorkload, seed)
			if err != nil {
				return err
			}
			out = experiments.RenderFig6(r, "Figure 7: insertion failures vs utilization (filesystem workload, capacities x10)")
		case "fig8":
			rows, err := experiments.RunFig8(sc, seed)
			if err != nil {
				return err
			}
			out = experiments.RenderFig8(rows)
		case "routing":
			r, err := experiments.RunRouting(sc, seed)
			if err != nil {
				return err
			}
			out = experiments.RenderRouting(r)
		case "frag":
			r, err := experiments.RunFragmentation(sc, seed)
			if err != nil {
				return err
			}
			out = experiments.RenderFragmentation(r)
		case "overhead":
			r, err := experiments.RunOverhead(sc, seed)
			if err != nil {
				return err
			}
			out = experiments.RenderOverhead(r)
		case "overload":
			r, err := experiments.RunOverload(experiments.OverloadConfig{Seed: seed})
			if err != nil {
				return err
			}
			out = experiments.RenderOverload(r)
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		fmt.Printf("==== %s (scale=%s, %.1fs) ====\n%s\n", id, sc.Name, time.Since(start).Seconds(), out)
		elog.Emit(obs.Event{
			Kind: "experiment", Op: id, N: time.Since(start).Milliseconds(), OK: true,
			Detail: fmt.Sprintf("scale=%s seed=%d", sc.Name, seed),
		})
	}
	return nil
}
