// Command past-bench regenerates the tables, figures and ablations of the
// PAST paper's evaluation (section 5) on the emulated network.
//
// Usage:
//
//	past-bench -exp table2 -scale bench
//	past-bench -exp all -scale tiny
//	past-bench -exp fig8 -scale full     # paper scale: 2250 nodes, ~1.8M files
//	past-bench -exp table3 -seeds 5      # mean±sd over seeds 1..5
//
// The experiment ids are internal/experiments' Registry, listed by -h.
// Figure 1 (one node's routing state in a 64-node b=2, l=8 network)
// ignores -scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"past/internal/experiments"
	"past/internal/obs"
)

func main() {
	var ids []string
	for _, e := range experiments.Registry() {
		ids = append(ids, e.ID)
	}
	var (
		exp    = flag.String("exp", "all", "experiment id: "+strings.Join(ids, "|")+"|all")
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
	if err := run(*exp, sc, *seed, *seeds, elog); err != nil {
		fmt.Fprintln(os.Stderr, "past-bench:", err)
		elog.Close()
		os.Exit(1)
	}
}

// run renders the experiments exp selects, once at seed or, with n > 1,
// as mean±sd over seeds seed..seed+n-1.
func run(exp string, sc experiments.Scale, seed int64, n int, elog *obs.EventLog) error {
	todo, err := experiments.Select(experiments.Registry(), exp, n > 1)
	if err != nil {
		return err
	}
	var seedList []int64
	for i := 0; i < n; i++ {
		seedList = append(seedList, seed+int64(i))
	}
	for _, e := range todo {
		start := time.Now()
		var out, tag, detail string
		if n > 1 {
			out, err = e.Seeds(sc, seedList)
			tag, detail = fmt.Sprintf(", %d seeds", n), fmt.Sprintf("scale=%s seeds=%d", sc.Name, n)
		} else {
			out, err = e.Run(sc, seed)
			detail = fmt.Sprintf("scale=%s seed=%d", sc.Name, seed)
		}
		if err != nil {
			return err
		}
		fmt.Printf("==== %s (scale=%s%s, %.1fs) ====\n%s\n", e.ID, sc.Name, tag, time.Since(start).Seconds(), out)
		elog.Emit(obs.Event{
			Kind: "experiment", Op: e.ID, N: time.Since(start).Milliseconds(), OK: true,
			Detail: detail,
		})
	}
	return nil
}
