package metrics

import (
	"math"
	"testing"

	"past/internal/id"
)

func fid(n uint64) id.File { return id.NewFile("f", nil, n) }

func TestUtilizationTracking(t *testing.T) {
	c := NewCollector(1000, 1)
	if c.Utilization() != 0 {
		t.Fatal("empty utilization")
	}
	c.ReplicaStored(fid(1), 200, false)
	c.ReplicaStored(fid(2), 300, true)
	if c.Utilization() != 0.5 || c.storedBytes != 500 {
		t.Fatalf("util=%g stored=%d", c.Utilization(), c.storedBytes)
	}
	c.ReplicaDiscarded(fid(1), 200, false)
	if c.Utilization() != 0.3 {
		t.Fatalf("util=%g after discard", c.Utilization())
	}
	if c.DivertedRatio() != 0.5 {
		t.Fatalf("diverted ratio %g; want 0.5 (1 of 2 stored)", c.DivertedRatio())
	}
}

func TestZeroCapacity(t *testing.T) {
	c := NewCollector(0, 1)
	if c.Utilization() != 0 {
		t.Fatal("zero-capacity utilization must be 0")
	}
	if c.DivertedRatio() != 0 {
		t.Fatal("empty diverted ratio must be 0")
	}
}

func TestTotals(t *testing.T) {
	c := NewCollector(1000, 1)
	c.RecordInsert(0.1, 10, 1, true, 0)
	c.RecordInsert(0.2, 10, 2, true, 1) // one file diversion
	c.RecordInsert(0.3, 10, 3, true, 0) // two
	c.RecordInsert(0.4, 10, 4, true, 0) // three
	c.RecordInsert(0.5, 10, 4, false, 0)
	tot := c.Totals()
	if tot.Total != 5 || tot.Succeeded != 4 || tot.Failed != 1 {
		t.Fatalf("totals %+v", tot)
	}
	if tot.FileDiverted != 3 || tot.Diverted1 != 1 || tot.Diverted2 != 1 || tot.Diverted3 != 1 {
		t.Fatalf("diversion counts %+v", tot)
	}
}

func TestCumulativeFailureSeries(t *testing.T) {
	c := NewCollector(1000, 1)
	// 10 inserts, failures start at 50% utilization.
	for i := 0; i < 10; i++ {
		util := float64(i) / 10
		c.RecordInsert(util, 10, 1, util < 0.5, 0)
	}
	pts := c.CumulativeFailureByUtil(10)
	if len(pts) == 0 {
		t.Fatal("no series points")
	}
	// The series must be non-decreasing in utilization and end at the
	// overall failure ratio 5/10.
	last := pts[len(pts)-1]
	if math.Abs(last.Value-0.5) > 1e-9 {
		t.Fatalf("final cumulative failure %g; want 0.5", last.Value)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Util < pts[i-1].Util {
			t.Fatal("series not sorted by utilization")
		}
	}
}

func TestCumulativeDiversionSeries(t *testing.T) {
	c := NewCollector(1000, 1)
	c.RecordInsert(0.2, 10, 1, true, 0)
	c.RecordInsert(0.4, 10, 2, true, 0)
	c.RecordInsert(0.6, 10, 3, true, 0)
	once := c.CumulativeDiversionByUtil(10, 1) // diverted at least once
	if len(once) == 0 || once[len(once)-1].Value < 0.6 {
		t.Fatalf("diverted>=1 series wrong: %+v", once)
	}
	twice := c.CumulativeDiversionByUtil(10, 2)
	if twice[len(twice)-1].Value < 0.3 || twice[len(twice)-1].Value > 0.34 {
		t.Fatalf("diverted>=2 final %g; want 1/3", twice[len(twice)-1].Value)
	}
}

func TestFailedInsertScatter(t *testing.T) {
	c := NewCollector(1000, 1)
	c.RecordInsert(0.9, 12345, 4, false, 0)
	c.RecordInsert(0.5, 10, 1, true, 0)
	pts := c.FailedInsertScatter()
	if len(pts) != 1 || pts[0].Value != 12345 || pts[0].Util != 0.9 {
		t.Fatalf("scatter %+v", pts)
	}
}

func TestLookupsByUtil(t *testing.T) {
	c := NewCollector(1000, 1)
	c.RecordLookup(0.05, 3, true, false)
	c.RecordLookup(0.05, 1, true, true)
	c.RecordLookup(0.95, 2, true, false)
	c.RecordLookup(0.95, 0, false, false) // not found: excluded
	ls := c.LookupsByUtil(10)
	if ls.Count[0] != 2 || ls.Hops[0] != 2 || ls.HitRate[0] != 0.5 {
		t.Fatalf("bucket0: count=%d hops=%g hit=%g", ls.Count[0], ls.Hops[0], ls.HitRate[0])
	}
	if ls.Count[9] != 1 || ls.Hops[9] != 2 {
		t.Fatalf("bucket9: %d %g", ls.Count[9], ls.Hops[9])
	}
	if ls.Hops[5] != -1 {
		t.Fatal("empty bucket must be marked -1")
	}
	mean, hit, found := c.GlobalLookupStats()
	if found != 3 || math.Abs(mean-2) > 1e-9 || math.Abs(hit-1.0/3) > 1e-9 {
		t.Fatalf("global stats: %g %g %d", mean, hit, found)
	}
}

func TestDivertedSeriesSampling(t *testing.T) {
	c := NewCollector(1000, 2)
	for i := 0; i < 10; i++ {
		c.ReplicaStored(fid(uint64(i)), 10, i%2 == 0)
		c.RecordInsert(float64(i)/10, 10, 1, true, 0)
	}
	if len(c.DivertedSeries) != 5 {
		t.Fatalf("sampled %d points; want 5 (every 2nd insert)", len(c.DivertedSeries))
	}
}

func TestGlobalLookupStatsEmpty(t *testing.T) {
	c := NewCollector(1, 1)
	if m, h, f := c.GlobalLookupStats(); m != 0 || h != 0 || f != 0 {
		t.Fatal("empty lookup stats must be zero")
	}
}

// Every offered sample is retained: the series are never downsampled.
func TestSampleCapDefaultOff(t *testing.T) {
	c := NewCollector(1000, 1)
	for i := 0; i < 500; i++ {
		c.RecordLookup(0.5, 3, true, false)
	}
	if len(c.Lookups) != 500 {
		t.Fatalf("all %d samples must be retained, got %d", 500, len(c.Lookups))
	}
}

func TestLookupsByUtilNaNAndNegative(t *testing.T) {
	c := NewCollector(0, 1) // zero capacity: Utilization() is 0, but feed samples directly
	c.RecordLookup(math.NaN(), 9, true, false)
	c.RecordLookup(-0.5, 2, true, false)
	c.RecordLookup(0.05, 4, true, true)
	ls := c.LookupsByUtil(10)
	// The NaN sample is skipped entirely; the negative one clamps into
	// bucket 0 alongside the valid 0.05 sample.
	if ls.Count[0] != 2 {
		t.Fatalf("bucket 0 count = %d; want 2 (negative clamp + valid sample, NaN skipped)", ls.Count[0])
	}
	if got := ls.Hops[0]; got != 3 {
		t.Fatalf("bucket 0 mean hops = %g; want 3 (the NaN sample's 9 hops must not leak in)", got)
	}
	total := 0
	for _, n := range ls.Count {
		total += n
	}
	if total != 2 {
		t.Fatalf("total bucketed samples = %d; want 2", total)
	}
}
