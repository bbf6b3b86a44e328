// Command bench is the PAST benchmark: five workloads, the end-to-end
// metrics measured with tracing off, and a traced repeat that yields
// the per-layer metrics. README.md documents it; BENCHMARK.json at the
// root of the repository declares it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seeds the fleet and the traffic on tcp-*, who issues each request on sim-*")
		seconds      = flag.Float64("seconds", 12, "how long one run measures")
		traceFlag    = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
		traced       = flag.Bool("traced", false, "same as -trace 1")
		workdir      = flag.String("workdir", "", "directory for tcp-write's log stores (default: the system's temporary directory)")
		spansOut     = flag.String("spans-out", "", "traced run: write the spans to this file as JSON lines")
		out          = flag.String("out", "", "append every run's result to this file, for -compare")
		runs         = flag.Int("runs", 1, "runs per workload, each with the next seed")
		compare      = flag.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
		smoke        = flag.Bool("smoke", false, "tiny fleets and traces: a quick check that everything runs, not a measurement")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.jsonl b.jsonl")
			return 2
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	var ws []workload
	if *workloadName == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*workloadName); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}
	runIt := runUntraced
	if *traced || *traceFlag == 1 {
		runIt = runTraced
	}
	code := 0
	for i := 0; i < *runs; i++ {
		cfg := runConfig{seed: *seed + int64(i), seconds: *seconds, workdir: *workdir, smoke: *smoke, spansOut: *spansOut}
		for _, w := range ws {
			res, err := runIt(w, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printResult(res)
			if !res.Correct {
				code = 1
			}
			if *out != "" {
				if err := appendResult(*out, res); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
			}
		}
	}
	return code
}

// appendResult adds the run to a -out file, one JSON object per line,
// with the toolchain and processor count it was measured under.
func appendResult(path string, r *result) error {
	r.Go, r.CPUs = runtime.Version(), runtime.GOMAXPROCS(0)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult prints the notes and every metric by name with its unit,
// then the contract's JSON object as the last line.
func printResult(r *result) {
	fmt.Printf("== %s seed=%d trace=%v\n", r.Workload, r.Seed, r.Trace)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Println(string(line))
}
