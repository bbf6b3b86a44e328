package main

import (
	"crypto/sha1"
	"math"
	"time"
)

// The box this benchmark runs on changes speed by a third for minutes at
// a time (the same netsim replay, allocation for allocation, took 39 us
// or 54 us of CPU per op depending on the quarter of an hour), which no
// statistic inside a 15-second run can remove. So every untraced run
// times two fixed kernels of its own before and after each round and
// reports its timing metrics at reference speed: a rate is multiplied,
// and a time divided, by how much slower than the reference the kernels
// ran. One kernel computes (SHA-1 over 1 MiB), the other leans on the Go
// runtime as the program does (map writes and small allocations); the
// geometric mean of the two tracked all five workloads better than either
// (README.md, "Machine speed"). The raw values are printed in the notes.

// Reference times of the kernels: what they took on the 2-vCPU box the
// benchmark was defined on, in its fast state. They only fix the scale.
const (
	refSHA   = 127 * time.Millisecond
	refAlloc = 92 * time.Millisecond
)

// speedSample is one timing of the two kernels.
type speedSample struct{ sha, alloc time.Duration }

var calBuf = make([]byte, 1<<20)

func calibrate() speedSample {
	var s speedSample
	t0 := time.Now()
	for i := 0; i < 96; i++ {
		sum := sha1.Sum(calBuf)
		calBuf[0] = sum[0]
	}
	s.sha = time.Since(t0)
	t0 = time.Now()
	m := map[int][]byte{}
	for i := 0; i < 1200000; i++ {
		m[i&4095] = make([]byte, 64+i&255)
	}
	sink.n = len(m)
	s.alloc = time.Since(t0)
	return s
}

// slowdown is how many times slower than the reference the machine ran
// during the samples: the geometric mean of the two kernels' median
// times over their reference times.
func slowdown(samples []speedSample) float64 {
	var sha, alloc []float64
	for _, s := range samples {
		sha = append(sha, float64(s.sha)/float64(refSHA))
		alloc = append(alloc, float64(s.alloc)/float64(refAlloc))
	}
	a, _ := median(sha)
	b, _ := median(alloc)
	return math.Sqrt(a * b)
}
