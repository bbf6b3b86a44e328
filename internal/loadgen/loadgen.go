// Package loadgen is a deterministic open-loop workload driver for
// PAST clusters. Requests arrive on a seeded schedule — constant rate,
// Poisson, or square-wave bursts — regardless of how fast the system
// answers, which is what distinguishes an open-loop driver from a
// closed-loop benchmark whose offered rate silently collapses to the
// service rate under overload.
//
// Latency is measured from each request's *intended* send time, not
// from the moment the driver actually got around to sending it. When
// the system (or the driver's own send path) stalls, requests queue
// behind the stall; measuring from actual send would erase that
// queueing delay from the percentiles — the coordinated-omission error.
// Measuring from the schedule keeps the tail honest.
//
// One SimConfig describes a run, and two executors run it, sharing the
// workload generator and the outcome recorder:
//
//   - Run: real clock, against anything implementing Client — a TCP
//     access point (AddrClient, which cmd/past-load drives).
//   - RunSim: virtual time against an emulated cluster. The driver
//     owns the clock: each admission controller reserves every arrival
//     its place in the node's queue, requests run in the resulting
//     service order, and a fixed seed yields a bit-identical Result
//     fingerprint.
package loadgen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"past/internal/netsim"
	"past/internal/stats"
	"past/internal/trace"
)

// arrivals generates a request schedule: successive calls return the
// nondecreasing intended send offsets of requests, measured from the
// start of the run. Implementations keep their cursor internally; all
// randomness comes from the caller's seeded RNG.
type arrivals interface {
	Next(r *rand.Rand) time.Duration
}

// newArrivals builds the arrival process kind at rate requests per
// second. A square wave runs at rate for the first half of every
// second and at a fifth of it for the rest.
func newArrivals(kind string, rate float64) (arrivals, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("loadgen: rate must be > 0, got %g", rate)
	}
	switch kind {
	case "constant":
		return newConstant(rate), nil
	case "poisson":
		return newPoisson(rate), nil
	case "square":
		return newSquareWave(rate/5, rate, time.Second, 0.5), nil
	}
	return nil, fmt.Errorf("loadgen: unknown arrival process %q (want constant, poisson, or square)", kind)
}

// constant is a fixed-rate arrival process: requests exactly 1/rate
// apart, the first at offset zero. It draws no randomness.
type constant struct {
	gap time.Duration
	at  time.Duration
}

func newConstant(rate float64) *constant {
	return &constant{gap: time.Duration(math.Round(float64(time.Second) / rate))}
}

func (c *constant) Next(*rand.Rand) time.Duration {
	at := c.at
	c.at += c.gap
	return at
}

// poisson is a memoryless arrival process: exponential inter-arrival
// gaps with the given mean rate, the standard model for independent
// clients.
type poisson struct {
	exp stats.Exponential
	at  time.Duration
}

func newPoisson(rate float64) *poisson {
	return &poisson{exp: stats.Exponential{Rate: rate}}
}

func (p *poisson) Next(r *rand.Rand) time.Duration {
	p.at += time.Duration(math.Round(p.exp.Sample(r) * float64(time.Second)))
	return p.at
}

// squareWave alternates between a low and a high constant rate — duty
// of every period is spent at high — modeling flash-crowd bursts
// against a quiet background. The rate is evaluated at each request's
// offset, so a gap that straddles a phase edge uses the rate of the
// phase it started in.
type squareWave struct {
	low, high float64
	period    time.Duration
	duty      float64
	at        time.Duration
}

func newSquareWave(low, high float64, period time.Duration, duty float64) *squareWave {
	return &squareWave{low: low, high: high, period: period, duty: duty}
}

func (s *squareWave) Next(*rand.Rand) time.Duration {
	at := s.at
	rate := s.low
	if float64(s.at%s.period) < s.duty*float64(s.period) {
		rate = s.high
	}
	s.at += time.Duration(math.Round(float64(time.Second) / rate))
	return at
}

// Workload shapes the request mix: a Zipf-popular population of files
// with NLANR-like sizes (trace.NLANRSizes).
type Workload struct {
	// Files is the unique-file population.
	Files int
	// Alpha is the Zipf popularity skew of lookups.
	Alpha float64
	// LookupFrac is the fraction of requests that are lookups (the
	// rest insert new files until the population is exhausted).
	LookupFrac float64
	// MaxPayload clamps sampled file sizes — a load driver measures
	// request handling, not bulk transfer.
	MaxPayload int64
}

// op is one scheduled request.
type op struct {
	At   time.Duration // intended send offset from run start
	Op   trace.Op
	File int32 // unique-file index
	Size int64 // set on inserts
}

// schedule materializes the full deterministic request schedule: the
// arrival offsets interleaved with the insert:lookup mix. Lookups
// target a Zipf-ranked file among those already inserted; until the
// first insert completes (and after the population is exhausted) the
// mix degenerates gracefully.
func schedule(a arrivals, w Workload, n int, r *rand.Rand) []op {
	z := stats.NewZipf(w.Files, w.Alpha)
	sizes := trace.NLANRSizes()
	ops := make([]op, 0, n)
	inserted := 0
	for i := 0; i < n; i++ {
		at := a.Next(r)
		lookup := inserted > 0 && (inserted >= w.Files || r.Float64() < w.LookupFrac)
		if lookup {
			f := int32(z.Rank(r) % inserted)
			ops = append(ops, op{At: at, Op: trace.OpLookup, File: f})
			continue
		}
		sz := sizes.Sample(r)
		if sz < 1 {
			sz = 1
		}
		if sz > w.MaxPayload {
			sz = w.MaxPayload
		}
		ops = append(ops, op{At: at, Op: trace.OpInsert, File: int32(inserted), Size: sz})
		inserted++
	}
	return ops
}

// Result aggregates one run. Latency holds served requests only
// (successes and authoritative not-founds), measured from intended
// send time; sheds and errors are counted but kept out of the
// percentiles so the curves describe what the service delivered.
type Result struct {
	Issued   int64
	OK       int64 // requests answered successfully
	NotFound int64 // lookups answered authoritatively empty
	Shed     int64 // rejected with netsim.ErrOverloaded
	Errors   int64 // any other failure
	// Good counts OK requests that completed within the SLO — the
	// numerator of goodput.
	Good int64
	// Latency is the served-request latency histogram in nanoseconds
	// from intended send time.
	Latency stats.LogHist
	// Elapsed is the offered-load window: the span of the arrival
	// schedule (virtual mode) or the wall time of the run (real mode).
	Elapsed time.Duration
	// Fingerprint is the SHA-256 of the per-request outcome stream.
	// Virtual runs at a fixed seed reproduce it bit-identically; real
	// runs leave it empty (wall-clock latencies are not reproducible).
	Fingerprint string
	// Cache aggregates the cluster's cache-engine tier counters at the
	// end of the run (virtual mode only). It is derived state, not part
	// of the fingerprint: the fingerprint covers per-request outcomes,
	// which already reflect cache behavior through hop counts.
	Cache CacheSummary
}

// record classifies one finished request: the outcome switch both
// executors share. A request answered without reaching the cluster — a
// lookup whose insert has not been served yet, which the access point
// answers not-found on the spot — is counted but has no latency to
// record, so routed is false for it.
func (r *Result) record(found, routed bool, err error, lat, slo time.Duration) {
	r.Issued++
	switch {
	case err == nil && found:
		r.OK++
		if lat <= slo {
			r.Good++
		}
	case err == nil:
		r.NotFound++
	case errors.Is(err, netsim.ErrOverloaded):
		r.Shed++
	default:
		r.Errors++
	}
	if err == nil && routed {
		r.Latency.Record(lat.Nanoseconds())
	}
}

// CacheSummary sums cache-engine tier counters across a cluster. In
// erasure-coded runs (SimConfig.EC) it also carries the fragment-level
// serving counters: FragHits are CRC-verified fragment reads served
// from holders' fragment stores, FragCRCDrops corrupt copies detected
// and discarded on read, and Reconstructs whole-object rebuilds from
// m-of-n fragments.
type CacheSummary struct {
	RAMHits, FlashHits, Misses int64
	Evictions                  int64
	FlashSpills, FlashSegDrops int64
	FragHits, FragCRCDrops     int64
	Reconstructs               int64
}

// HitRate is (RAM + flash hits) / all cache probes, or 0 with no
// traffic.
func (c CacheSummary) HitRate() float64 {
	total := c.RAMHits + c.FlashHits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.RAMHits+c.FlashHits) / float64(total)
}

// Goodput is SLO-satisfying completions per second over the offered
// window.
func (r *Result) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Good) / r.Elapsed.Seconds()
}

// P returns the p-th served-latency percentile.
func (r *Result) P(p float64) time.Duration {
	return time.Duration(r.Latency.Quantile(p))
}

// String renders the one-line summary the CLIs print.
func (r *Result) String() string {
	return fmt.Sprintf(
		"issued %d ok %d notfound %d shed %d errors %d goodput %.1f/s p50 %v p99 %v p999 %v",
		r.Issued, r.OK, r.NotFound, r.Shed, r.Errors, r.Goodput(),
		r.P(50).Round(time.Microsecond), r.P(99).Round(time.Microsecond),
		r.P(99.9).Round(time.Microsecond))
}
