package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// snapshot is the process-wide state read at a segment boundary.
type snapshot struct {
	at      time.Time
	cpu     time.Duration // user+sys of the whole process (getrusage)
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pause   time.Duration
}

func takeSnapshot() snapshot {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcs: ms.NumGC, pause: time.Duration(ms.PauseTotalNs),
	}
}

// sample is one completed op.
type sample struct {
	op     int           // index in its client's stream; the op id of its spans
	end    time.Duration // completion time since the phase started
	out    outcome
	traced bool
}

// segment is one slice of a measured phase: the ops that completed in
// it and what the process spent meanwhile.
type segment struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pause   time.Duration
	done    int // ops that completed correctly
	lat     [2][]time.Duration
}

// phase is one measured run of an instance.
type phase struct {
	samples  []sample
	segments []segment
}

// runPhase drives the instance closed-loop from `clients` goroutines.
// A timed phase lasts dur and is cut into nseg segments of equal time;
// a finite one (dur == 0) runs each stream to its end as one segment.
// With a recorder, recording alternates on and off every blockOps ops.
func runPhase(inst instance, clients int, dur time.Duration, nseg int, rec *recorder) phase {
	const blockOps = 64
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	start := takeSnapshot()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				traced := rec != nil && (i/blockOps)%2 == 1
				if rec != nil {
					rec.on.Store(traced)
					rec.op.Store(int64(i))
				}
				out, ok := inst.do(c, i)
				if !ok {
					break
				}
				end := time.Since(start.at)
				per[c] = append(per[c], sample{op: i, end: end, out: out, traced: traced})
				if dur > 0 && end >= dur {
					break
				}
			}
		}(c)
	}
	bounds := []snapshot{start}
	if dur > 0 {
		for s := 1; s <= nseg; s++ {
			time.Sleep(time.Until(start.at.Add(dur * time.Duration(s) / time.Duration(nseg))))
			bounds = append(bounds, takeSnapshot())
		}
		wg.Wait()
	} else {
		wg.Wait()
		bounds = append(bounds, takeSnapshot())
	}
	if rec != nil {
		rec.on.Store(false)
	}

	var p phase
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].end < p.samples[j].end })
	next := 0
	for s := 1; s < len(bounds); s++ {
		a, b := bounds[s-1], bounds[s]
		seg := segment{wall: b.at.Sub(a.at), cpu: b.cpu - a.cpu, mallocs: b.mallocs - a.mallocs,
			bytes: b.bytes - a.bytes, gcs: b.gcs - a.gcs, pause: b.pause - a.pause}
		for ; next < len(p.samples) && p.samples[next].end < b.at.Sub(start.at); next++ {
			sm := p.samples[next]
			if sm.out.failed || sm.out.skipped {
				continue
			}
			seg.done++
			seg.lat[sm.out.kind] = append(seg.lat[sm.out.kind], sm.out.lat)
		}
		p.segments = append(p.segments, seg)
	}
	return p
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, and false if xs is empty. xs is sorted in place.
func percentile(xs []time.Duration, p float64) (time.Duration, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1], true
}

// median returns the median of xs (mean of the middle two for an even
// count) and false if xs is empty.
func median(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2], true
	} else {
		return (s[n/2-1] + s[n/2]) / 2, true
	}
}

// segmentMedian computes one value per segment and returns their
// median; segments for which f has no value are left out.
func segmentMedian(segs []segment, f func(segment) (float64, bool)) (float64, bool) {
	var vals []float64
	for _, s := range segs {
		if v, ok := f(s); ok {
			vals = append(vals, v)
		}
	}
	return median(vals)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func latPercentile(kind opKind, p float64) func(segment) (float64, bool) {
	return func(s segment) (float64, bool) {
		d, ok := percentile(s.lat[kind], p)
		return us(d), ok
	}
}

func perOp(f func(segment) float64) func(segment) (float64, bool) {
	return func(s segment) (float64, bool) {
		if s.done == 0 {
			return 0, false
		}
		return f(s) / float64(s.done), true
	}
}

// tally is the correctness accounting of a set of samples.
type tally struct {
	attempted, failed, rejected, skipped int
	lookups, hits                        int
	hopOps, hops                         [2]int // per kind: ops whose reply carried hops, and their sum
}

func (t *tally) add(samples []sample) {
	for _, s := range samples {
		o := s.out
		if o.skipped {
			t.skipped++
			continue
		}
		t.attempted++
		switch {
		case o.failed:
			t.failed++
			continue
		case o.rejected:
			t.rejected++
		}
		if o.hasHops {
			t.hopOps[o.kind]++
			t.hops[o.kind] += o.hops
		}
		if o.kind == opLookup {
			t.lookups++
			if o.fromCache {
				t.hits++
			}
		}
	}
}

// hopsMean is the mean overlay hops of the lookups that succeeded, or,
// on a workload without lookups, of the inserts.
func (t tally) hopsMean() float64 {
	k := opLookup
	if t.hopOps[k] == 0 {
		k = opInsert
	}
	if t.hopOps[k] == 0 {
		return 0
	}
	return float64(t.hops[k]) / float64(t.hopOps[k])
}

func (t tally) hitPct() float64 {
	if t.lookups == 0 {
		return 0
	}
	return 100 * float64(t.hits) / float64(t.lookups)
}

func (t tally) rejectPct() float64 {
	if t.attempted == 0 {
		return 0
	}
	return 100 * float64(t.rejected) / float64(t.attempted)
}

// fingerprint is the part of a round that must repeat exactly when a
// netsim workload is replayed at the same seed.
func (t tally) fingerprint(f final) string {
	return fmt.Sprintf("util=%.9f rejected=%d/%d hits=%d/%d hops=%.9f held=%d user=%d",
		f.util, t.rejected, t.attempted, t.hits, t.lookups, t.hopsMean(), f.heldBytes, f.userBytes)
}
