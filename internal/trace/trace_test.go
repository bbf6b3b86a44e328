package trace

import (
	"math"
	"slices"
	"testing"
)

// sizeSummary returns the mean, median and maximum of a size sample.
func sizeSummary(xs []int64) (mean float64, median, largest int64) {
	sorted := slices.Sorted(slices.Values(xs))
	var sum int64
	for _, x := range sorted {
		sum += x
	}
	return float64(sum) / float64(len(sorted)), sorted[(len(sorted)+1)/2-1], sorted[len(sorted)-1]
}

func TestInsertOnlyShape(t *testing.T) {
	w := InsertOnly(5000, NLANRSizes(), 1)
	if w.Files != 5000 || len(w.Events) != 5000 {
		t.Fatalf("files=%d events=%d", w.Files, len(w.Events))
	}
	var sum int64
	for _, e := range w.Events {
		if e.Op != OpInsert {
			t.Fatal("insert-only workload contains lookups")
		}
		if e.Size != w.Sizes[e.File] {
			t.Fatal("event size disagrees with size table")
		}
		sum += e.Size
	}
	if sum != w.TotalBytes {
		t.Fatalf("TotalBytes %d != sum %d", w.TotalBytes, sum)
	}
}

func TestNLANRSizeCalibration(t *testing.T) {
	w := InsertOnly(60000, NLANRSizes(), 2)
	mean, median, largest := sizeSummary(w.Sizes)
	// Published: mean 10,517 B, median 1,312 B. Allow sampling slack.
	if math.Abs(mean-10517)/10517 > 0.2 {
		t.Fatalf("mean %f too far from 10517", mean)
	}
	if math.Abs(float64(median)-1312)/1312 > 0.1 {
		t.Fatalf("median %d too far from 1312", median)
	}
	if largest > 138<<20 {
		t.Fatalf("max %d exceeds published 138MB clamp", largest)
	}
}

func TestFilesystemSizeCalibration(t *testing.T) {
	w := InsertOnly(60000, FilesystemSizes(), 3)
	mean, median, _ := sizeSummary(w.Sizes)
	if math.Abs(mean-88233)/88233 > 0.25 {
		t.Fatalf("mean %f too far from 88233", mean)
	}
	if math.Abs(float64(median)-4578)/4578 > 0.1 {
		t.Fatalf("median %d too far from 4578", median)
	}
}

func TestWebTraceSemantics(t *testing.T) {
	spec := DefaultWebSpec(4000, 4)
	w := WebTrace(spec)
	if len(w.Events) != spec.Requests {
		t.Fatalf("events=%d want %d", len(w.Events), spec.Requests)
	}
	// First reference inserts; repeats look up; never a lookup before
	// its insert.
	inserted := map[int32]bool{}
	uniques := 0
	var bytes int64
	for _, e := range w.Events {
		switch e.Op {
		case OpInsert:
			if inserted[e.File] {
				t.Fatal("double insert of a file")
			}
			inserted[e.File] = true
			uniques++
			bytes += e.Size
		case OpLookup:
			if !inserted[e.File] {
				t.Fatal("lookup before insert")
			}
		}
		if e.Client < 0 || int(e.Client) >= spec.Clients {
			t.Fatal("client out of range")
		}
	}
	if uniques != w.Files {
		t.Fatalf("unique count %d != reported %d", uniques, w.Files)
	}
	if bytes != w.TotalBytes {
		t.Fatal("TotalBytes mismatch")
	}
	// With requests ~2.15x population, a large majority of the
	// population should be touched.
	if float64(w.Files) < 0.5*float64(spec.UniqueFiles) {
		t.Fatalf("only %d of %d files referenced", w.Files, spec.UniqueFiles)
	}
	// And there must be plenty of repeat references for caching to matter.
	if len(w.Events)-uniques < len(w.Events)/4 {
		t.Fatal("too few repeat references")
	}
}

func TestWebTracePopularitySkew(t *testing.T) {
	w := WebTrace(DefaultWebSpec(2000, 5))
	counts := map[int32]int{}
	for _, e := range w.Events {
		counts[e.File]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Zipf: the most popular file must be referenced far more often than
	// the mean (~2.15).
	if max < 20 {
		t.Fatalf("max popularity %d; stream not skewed", max)
	}
}

func TestWebTraceSiteAffinity(t *testing.T) {
	spec := DefaultWebSpec(2000, 6)
	w := WebTrace(spec)
	// For each file referenced >= 8 times, the modal site should exceed
	// the uniform share (1/8) substantially on average.
	bySite := map[int32]map[int32]int{}
	tot := map[int32]int{}
	for _, e := range w.Events {
		if bySite[e.File] == nil {
			bySite[e.File] = map[int32]int{}
		}
		bySite[e.File][w.SiteOf[e.Client]]++
		tot[e.File]++
	}
	var modalShare float64
	n := 0
	for f, sites := range bySite {
		if tot[f] < 8 {
			continue
		}
		max := 0
		for _, c := range sites {
			if c > max {
				max = c
			}
		}
		modalShare += float64(max) / float64(tot[f])
		n++
	}
	if n == 0 {
		t.Skip("no popular files at this scale")
	}
	avg := modalShare / float64(n)
	if avg < 0.3 { // uniform would give ~0.2 for 8 sites at these counts
		t.Fatalf("average modal site share %.2f; affinity not working", avg)
	}
}

func TestWebTraceDeterministic(t *testing.T) {
	a := WebTrace(DefaultWebSpec(1000, 7))
	b := WebTrace(DefaultWebSpec(1000, 7))
	if len(a.Events) != len(b.Events) {
		t.Fatal("lengths differ")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatal("event streams differ for equal seeds")
		}
	}
}

func TestWebTracePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	WebTrace(WebSpec{})
}

func TestFileName(t *testing.T) {
	if FileName(7) != "trace-file-7" {
		t.Fatalf("FileName = %q", FileName(7))
	}
}
