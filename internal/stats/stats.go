// Package stats provides the random processes and descriptive statistics
// the PAST evaluation is built from: truncated normal distributions for
// node storage capacities (Table 1 of the paper), a finite Zipf sampler
// for web-request popularity (the paper cites Breslau et al.'s evidence
// of Zipf-like web request distributions), and lognormal file-size
// distributions calibrated from published medians and means.
//
// All sampling is driven by an explicit *rand.Rand so that every
// experiment in this repository is deterministic given its seed.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
)

// NewRand returns a deterministic PRNG for the given seed.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// TruncNormal is a normal distribution with mean Mean and standard
// deviation Sigma, truncated to the closed interval [Lo, Hi]. The paper's
// node-capacity distributions d1-d4 are all of this form.
type TruncNormal struct {
	Mean, Sigma float64
	Lo, Hi      float64
}

// Sample draws one value by rejection. It panics if the interval is
// empty or inverted, which indicates a misconfigured experiment.
func (t TruncNormal) Sample(r *rand.Rand) float64 {
	if t.Lo > t.Hi {
		panic(fmt.Sprintf("stats: truncated normal with empty support [%g,%g]", t.Lo, t.Hi))
	}
	if t.Sigma <= 0 {
		return math.Min(math.Max(t.Mean, t.Lo), t.Hi)
	}
	for {
		v := r.NormFloat64()*t.Sigma + t.Mean
		if v >= t.Lo && v <= t.Hi {
			return v
		}
	}
}

// Zipf samples ranks 0..N-1 with probability proportional to
// 1/(rank+1)^Alpha. Unlike math/rand's Zipf it supports exponents <= 1,
// which real web traces exhibit (Breslau et al. report alpha in
// 0.64-0.83); it uses an explicit inverse-CDF table, so construction is
// O(N) and sampling is O(log N).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a finite Zipf distribution over n ranks with exponent
// alpha > 0.
func NewZipf(n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf needs n > 0")
	}
	if alpha <= 0 {
		panic("stats: Zipf needs alpha > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Rank draws a popularity rank in [0, N), rank 0 being the most popular.
func (z *Zipf) Rank(r *rand.Rand) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// LogNormal is the distribution of exp(N(Mu, Sigma^2)).
type LogNormal struct {
	Mu, Sigma float64
}

// LogNormalFromMedianMean solves for the unique lognormal with the given
// median and mean. For a lognormal, median = e^mu and
// mean = e^(mu + sigma^2/2), so sigma^2 = 2 ln(mean/median). The paper
// reports exactly these two moments for both of its workloads, which is
// what makes this the natural synthetic substitute.
func LogNormalFromMedianMean(median, mean float64) LogNormal {
	if median <= 0 || mean < median {
		panic(fmt.Sprintf("stats: lognormal needs 0 < median <= mean, got median=%g mean=%g", median, mean))
	}
	mu := math.Log(median)
	sigma := math.Sqrt(2 * math.Log(mean/median))
	return LogNormal{Mu: mu, Sigma: sigma}
}

// Sample draws one value.
func (l LogNormal) Sample(r *rand.Rand) float64 {
	return math.Exp(r.NormFloat64()*l.Sigma + l.Mu)
}

// Exponential is the exponential distribution with the given rate
// (events per unit time); its samples are the inter-arrival times of a
// Poisson process with that rate. The open-loop load generator and the
// churn models draw arrival gaps from it.
type Exponential struct {
	// Rate is the event rate; the mean inter-arrival time is 1/Rate.
	Rate float64
}

// Sample draws one inter-arrival time.
func (e Exponential) Sample(r *rand.Rand) float64 {
	if e.Rate <= 0 {
		panic(fmt.Sprintf("stats: exponential needs rate > 0, got %g", e.Rate))
	}
	return r.ExpFloat64() / e.Rate
}

// SizeDist produces integer file sizes: a lognormal body clamped to
// [Min, Max], with an optional probability PZero of an empty file (both
// paper workloads contain zero-byte files).
type SizeDist struct {
	LN       LogNormal
	Min, Max int64
	PZero    float64
}

// Sample draws one file size in bytes.
func (s SizeDist) Sample(r *rand.Rand) int64 {
	if s.PZero > 0 && r.Float64() < s.PZero {
		return 0
	}
	v := int64(s.LN.Sample(r))
	if v < s.Min {
		v = s.Min
	}
	if s.Max > 0 && v > s.Max {
		v = s.Max
	}
	return v
}

// logHistSub is the number of sub-buckets per power-of-two octave in a
// LogHist. 32 sub-buckets bound the relative quantization error of any
// recorded value by 1/32 ≈ 3%, at 5 significant bits of precision —
// the classic HDR-histogram layout.
const logHistSub = 32

// logHistBuckets spans values up to 2^63-1: octave of the largest value
// is 62 (bits.Len64 = 63), so the highest index is 57*32+63.
const logHistBuckets = 58*logHistSub + logHistSub

// LogHist is a log-bucketed histogram for non-negative int64
// observations (latencies in nanoseconds, sizes in bytes). Buckets are
// exact below logHistSub and then logHistSub-per-octave, so quantile
// error is bounded relative to the value, not absolute — p999 of a
// 10s tail is as trustworthy as p50 of a 100µs body. The zero value is
// ready to use. Not safe for concurrent use; shard and Merge instead.
type LogHist struct {
	counts [logHistBuckets]int64
	n      int64
	min    int64
	max    int64
}

// logBucket maps a value to its bucket index.
func logBucket(v int64) int {
	if v < logHistSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 6 // 6 = log2(logHistSub) + 1
	return exp*logHistSub + int(v>>uint(exp))
}

// LogBucketLo returns the inclusive lower bound of bucket i.
func LogBucketLo(i int) int64 {
	if i < 2*logHistSub {
		return int64(i)
	}
	exp := i/logHistSub - 1
	return int64(i-exp*logHistSub) << uint(exp)
}

// LogBucketHi returns the exclusive upper bound of bucket i, saturating
// at MaxInt64 for the topmost bucket (whose true bound is 2^63).
func LogBucketHi(i int) int64 {
	if i < 2*logHistSub {
		return int64(i) + 1
	}
	exp := i/logHistSub - 1
	hi := LogBucketLo(i) + int64(1)<<uint(exp)
	if hi <= 0 {
		return math.MaxInt64
	}
	return hi
}

// Record adds one observation. Negative values clamp to zero.
func (h *LogHist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[logBucket(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
}

// Count returns the number of observations.
func (h *LogHist) Count() int64 { return h.n }

// Quantile returns the p-th percentile (0-100), interpolating linearly
// between the edges of the bucket the target rank lands in rather than
// snapping to a bucket boundary (nearest-rank), and clamping to the
// recorded min/max so an interpolated tail never exceeds an observed
// value. Returns 0 on an empty histogram.
func (h *LogHist) Quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return float64(h.min)
	}
	if p >= 100 {
		return float64(h.max)
	}
	target := p / 100 * float64(h.n)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		prev := float64(cum)
		cum += c
		if float64(cum) >= target {
			lo, hi := float64(LogBucketLo(i)), float64(LogBucketHi(i))
			frac := (target - prev) / float64(c)
			v := lo + frac*(hi-lo)
			if v < float64(h.min) {
				v = float64(h.min)
			}
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
	}
	return float64(h.max)
}
