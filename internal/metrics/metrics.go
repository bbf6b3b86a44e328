// Package metrics collects the measurements the paper's evaluation
// reports: global storage utilization, insertion success/failure and
// file-diversion counts, replica-diversion ratios, lookup hop counts and
// cache hit rates — each both in aggregate and as a series over the
// storage utilization at the time of the event (the x-axis of every
// figure in section 5).
package metrics

import (
	"math"

	"past/internal/id"
)

// InsertSample records one client-level insert operation.
type InsertSample struct {
	// Util is the global storage utilization when the insert was issued.
	Util float64
	// Size is the file size in bytes.
	Size int64
	// Attempts is 1 + the number of file diversions performed.
	Attempts int
	// OK reports whether the insert eventually succeeded.
	OK bool
	// DivertedReplicas counts replica diversions in the final attempt.
	DivertedReplicas int
}

// LookupSample records one client-level lookup operation.
type LookupSample struct {
	Util      float64
	Hops      int
	Found     bool
	FromCache bool
}

// DivertedPoint samples the cumulative replica-diversion ratio.
type DivertedPoint struct {
	Util  float64
	Ratio float64 // diverted replicas stored so far / replicas stored so far
}

// Collector implements past.Monitor and accumulates client-side samples.
// It is not safe for concurrent use; the experiment drivers are
// single-threaded, like the paper's.
type Collector struct {
	totalCapacity int64
	storedBytes   int64

	// Cumulative (monotone) replica counters, for diversion ratios.
	replicasStored  int64
	divertedStored  int64
	replicasDropped int64

	Inserts []InsertSample
	Lookups []LookupSample

	// DivertedSeries is sampled after every insert.
	DivertedSeries []DivertedPoint
	sampleEvery    int
	sinceSample    int
}

// NewCollector creates a collector for a system with the given total
// advertised capacity. sampleEvery controls how often the cumulative
// replica-diversion ratio is sampled (every Nth insert).
func NewCollector(totalCapacity int64, sampleEvery int) *Collector {
	if sampleEvery <= 0 {
		sampleEvery = 1
	}
	return &Collector{totalCapacity: totalCapacity, sampleEvery: sampleEvery}
}

// Utilization returns current global storage utilization in [0, 1].
func (c *Collector) Utilization() float64 {
	if c.totalCapacity == 0 {
		return 0
	}
	return float64(c.storedBytes) / float64(c.totalCapacity)
}

// ReplicaStored implements past.Monitor.
func (c *Collector) ReplicaStored(_ id.File, size int64, diverted bool) {
	c.storedBytes += size
	c.replicasStored++
	if diverted {
		c.divertedStored++
	}
}

// ReplicaDiscarded implements past.Monitor.
func (c *Collector) ReplicaDiscarded(_ id.File, size int64, _ bool) {
	c.storedBytes -= size
	c.replicasDropped++
}

// DivertedRatio returns diverted/stored over the whole run (cumulative,
// as Figure 5 plots it).
func (c *Collector) DivertedRatio() float64 {
	if c.replicasStored == 0 {
		return 0
	}
	return float64(c.divertedStored) / float64(c.replicasStored)
}

// RecordInsert adds a client-side insert sample. util should be sampled
// before the insert executed.
func (c *Collector) RecordInsert(util float64, size int64, attempts int, ok bool, diverted int) {
	c.Inserts = append(c.Inserts, InsertSample{
		Util: util, Size: size, Attempts: attempts, OK: ok, DivertedReplicas: diverted,
	})
	c.sinceSample++
	if c.sinceSample >= c.sampleEvery {
		c.sinceSample = 0
		c.DivertedSeries = append(c.DivertedSeries, DivertedPoint{
			Util: c.Utilization(), Ratio: c.DivertedRatio(),
		})
	}
}

// RecordLookup adds a client-side lookup sample.
func (c *Collector) RecordLookup(util float64, hops int, found, fromCache bool) {
	c.Lookups = append(c.Lookups, LookupSample{Util: util, Hops: hops, Found: found, FromCache: fromCache})
}

// InsertTotals summarizes insert outcomes.
type InsertTotals struct {
	Total, Succeeded, Failed int
	// FileDiverted counts successful inserts that needed >= 1 re-salt.
	FileDiverted int
	// Diverted1/2/3 count inserts by number of file diversions.
	Diverted1, Diverted2, Diverted3 int
}

// Totals computes aggregate insert statistics.
func (c *Collector) Totals() InsertTotals {
	var t InsertTotals
	for _, s := range c.Inserts {
		t.Total++
		if s.OK {
			t.Succeeded++
			if s.Attempts > 1 {
				t.FileDiverted++
			}
			switch s.Attempts {
			case 2:
				t.Diverted1++
			case 3:
				t.Diverted2++
			case 4:
				t.Diverted3++
			}
		} else {
			t.Failed++
		}
	}
	return t
}

// Point is one (utilization, value) sample of a figure series.
type Point struct {
	Util  float64
	Value float64
}

// CumulativeFailureByUtil computes the cumulative-failure-ratio series
// of Figures 2, 3, 4, 6, and 7: at each utilization bucket boundary, the
// fraction of all insertions so far that failed. buckets is the number
// of utilization buckets across [0, 1].
func (c *Collector) CumulativeFailureByUtil(buckets int) []Point {
	return cumulativeSeries(c.Inserts, buckets, func(s InsertSample) bool { return !s.OK })
}

// CumulativeDiversionByUtil computes, for inserts diverted at least
// `times` times, the cumulative ratio series of Figure 4.
func (c *Collector) CumulativeDiversionByUtil(buckets, times int) []Point {
	return cumulativeSeries(c.Inserts, buckets, func(s InsertSample) bool {
		return s.OK && s.Attempts > times
	})
}

func cumulativeSeries(samples []InsertSample, buckets int, pred func(InsertSample) bool) []Point {
	if buckets <= 0 {
		buckets = 100
	}
	var out []Point
	count, match := 0, 0
	next := 1
	for _, s := range samples {
		count++
		if pred(s) {
			match++
		}
		for s.Util*float64(buckets) >= float64(next) {
			out = append(out, Point{Util: float64(next) / float64(buckets), Value: float64(match) / float64(count)})
			next++
		}
	}
	if count > 0 {
		out = append(out, Point{Util: lastUtil(samples), Value: float64(match) / float64(count)})
	}
	return out
}

func lastUtil(samples []InsertSample) float64 {
	if len(samples) == 0 {
		return 0
	}
	return samples[len(samples)-1].Util
}

// FailedInsertScatter returns the (utilization, size) points of failed
// insertions — Figure 6/7's scatter plot.
func (c *Collector) FailedInsertScatter() []Point {
	var out []Point
	for _, s := range c.Inserts {
		if !s.OK {
			out = append(out, Point{Util: s.Util, Value: float64(s.Size)})
		}
	}
	return out
}

// LookupSeries aggregates lookups into utilization buckets, returning
// per-bucket mean hops and cache hit rate — Figure 8's two curves.
type LookupSeries struct {
	BucketLo []float64 // bucket lower bounds
	Hops     []float64 // mean routing hops per bucket (NaN-free: -1 if empty)
	HitRate  []float64 // cache hit rate per bucket (-1 if empty)
	Count    []int
}

// LookupsByUtil buckets lookup samples by utilization.
func (c *Collector) LookupsByUtil(buckets int) LookupSeries {
	ls := LookupSeries{
		BucketLo: make([]float64, buckets),
		Hops:     make([]float64, buckets),
		HitRate:  make([]float64, buckets),
		Count:    make([]int, buckets),
	}
	hopSum := make([]float64, buckets)
	hits := make([]int, buckets)
	for i := range ls.BucketLo {
		ls.BucketLo[i] = float64(i) / float64(buckets)
	}
	for _, s := range c.Lookups {
		if !s.Found {
			continue
		}
		if math.IsNaN(s.Util) {
			// A NaN utilization (zero-capacity harness, 0/0) converts to
			// int as an unspecified value; don't let it pollute a bucket.
			continue
		}
		b := int(s.Util * float64(buckets))
		if b < 0 {
			// Negative utilization is a harness accounting bug; clamp to
			// the first bucket rather than corrupting memory-adjacent
			// buckets via a negative index.
			b = 0
		}
		if b >= buckets {
			b = buckets - 1
		}
		ls.Count[b]++
		hopSum[b] += float64(s.Hops)
		if s.FromCache {
			hits[b]++
		}
	}
	for b := 0; b < buckets; b++ {
		if ls.Count[b] == 0 {
			ls.Hops[b] = -1
			ls.HitRate[b] = -1
			continue
		}
		ls.Hops[b] = hopSum[b] / float64(ls.Count[b])
		ls.HitRate[b] = float64(hits[b]) / float64(ls.Count[b])
	}
	return ls
}

// GlobalLookupStats returns overall mean hops and hit rate.
func (c *Collector) GlobalLookupStats() (meanHops, hitRate float64, found int) {
	var hops float64
	var hits int
	for _, s := range c.Lookups {
		if !s.Found {
			continue
		}
		found++
		hops += float64(s.Hops)
		if s.FromCache {
			hits++
		}
	}
	if found == 0 {
		return 0, 0, 0
	}
	return hops / float64(found), float64(hits) / float64(found), found
}
