package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readResults reads a -out file: one result per line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first, second and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) does (the exclusive method),
// which is what the driver's acceptance check uses. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the distance between the quartiles as a share of the
// median; 0 for fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// verdict compares a metric's medians under its bound. A spread wider
// than the bound on either side leaves the pair unresolved.
func verdict(spec metricSpec, a, b []float64) string {
	if spread(a) > spec.Bound || spread(b) > spec.Bound {
		return "unresolved"
	}
	ma, _ := median(a)
	mb, _ := median(b)
	if spec.Better == "higher" {
		ma, mb = -ma, -mb
	}
	// Now lower is better, and a negative base flips the inequality's
	// scale, so compare the change against the base's magnitude.
	switch change := mb - ma; {
	case change > spec.Bound*math.Abs(ma):
		return "worse"
	case change < -spec.Bound*math.Abs(ma):
		return "better"
	}
	return "same"
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, their ratio with its base, the bound and the verdict. It
// reports whether any pair is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	ra, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	values := func(rs []result, workload, name string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	fmt.Fprintf(w, "A = %s\nB = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-10s %-16s %14s %14s %9s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "spreadA", "spreadB", "bound", "verdict")
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			a, b := values(ra, wl.name, spec.Name), values(rb, wl.name, spec.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, _ := median(a)
			mb, _ := median(b)
			v := verdict(spec, a, b)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-10s %-16s %14.4f %14.4f %9.4f %7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d; %s is better; ratio's base is A)\n",
				wl.name, spec.Name, ma, mb, mb/ma, 100*spread(a), 100*spread(b), 100*spec.Bound, v, len(a), len(b), spec.Better)
		}
	}
	return worse, nil
}
