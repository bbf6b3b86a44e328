package stats

import (
	"math"
	"sort"
	"testing"
)

func TestTruncNormalBounds(t *testing.T) {
	r := NewRand(1)
	tn := TruncNormal{Mean: 27, Sigma: 10.8, Lo: 2, Hi: 51}
	for i := 0; i < 10000; i++ {
		v := tn.Sample(r)
		if v < tn.Lo || v > tn.Hi {
			t.Fatalf("sample %g outside [%g,%g]", v, tn.Lo, tn.Hi)
		}
	}
}

func TestTruncNormalMean(t *testing.T) {
	r := NewRand(2)
	tn := TruncNormal{Mean: 27, Sigma: 9.6, Lo: 4, Hi: 49}
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += tn.Sample(r)
	}
	mean := sum / n
	if math.Abs(mean-27) > 0.5 {
		t.Fatalf("empirical mean %g too far from 27", mean)
	}
}

func TestTruncNormalDegenerateSigma(t *testing.T) {
	r := NewRand(3)
	tn := TruncNormal{Mean: 100, Sigma: 0, Lo: 0, Hi: 50}
	if v := tn.Sample(r); v != 50 {
		t.Fatalf("degenerate sample = %g; want clamped 50", v)
	}
}

func TestTruncNormalPanicsOnEmptySupport(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	TruncNormal{Mean: 0, Sigma: 1, Lo: 5, Hi: 1}.Sample(NewRand(1))
}

func TestZipfRankRange(t *testing.T) {
	r := NewRand(4)
	z := NewZipf(100, 0.8)
	for i := 0; i < 10000; i++ {
		k := z.Rank(r)
		if k < 0 || k >= 100 {
			t.Fatalf("rank %d out of range", k)
		}
	}
}

func TestZipfMonotonePopularity(t *testing.T) {
	r := NewRand(5)
	z := NewZipf(50, 0.8)
	counts := make([]int, 50)
	for i := 0; i < 200000; i++ {
		counts[z.Rank(r)]++
	}
	// Rank 0 must dominate rank 10, rank 10 must dominate rank 40.
	if counts[0] <= counts[10] || counts[10] <= counts[40] {
		t.Fatalf("popularity not decreasing: %d, %d, %d", counts[0], counts[10], counts[40])
	}
}

func TestZipfLowAlphaSupported(t *testing.T) {
	// math/rand's Zipf cannot do alpha <= 1; ours must.
	z := NewZipf(1000, 0.64)
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		if k := z.Rank(r); k < 0 || k >= 1000 {
			t.Fatalf("rank %d outside [0, 1000)", k)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(0, 1) },
		func() { NewZipf(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			f()
		}()
	}
}

func TestLogNormalCalibration(t *testing.T) {
	// The paper's NLANR workload: median 1,312 B, mean 10,517 B.
	ln := LogNormalFromMedianMean(1312, 10517)
	r := NewRand(6)
	const n = 400000
	xs := make([]float64, n)
	sum := 0.0
	for i := range xs {
		xs[i] = ln.Sample(r)
		sum += xs[i]
	}
	sort.Float64s(xs)
	med := xs[n/2]
	mean := sum / n
	if math.Abs(med-1312)/1312 > 0.05 {
		t.Fatalf("median %g too far from 1312", med)
	}
	if math.Abs(mean-10517)/10517 > 0.15 {
		t.Fatalf("mean %g too far from 10517", mean)
	}
}

func TestLogNormalFromMedianMeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for mean < median")
		}
	}()
	LogNormalFromMedianMean(100, 50)
}

func TestSizeDistClampsAndZeroes(t *testing.T) {
	r := NewRand(7)
	sd := SizeDist{
		LN:    LogNormalFromMedianMean(1312, 10517),
		Min:   0,
		Max:   1 << 20,
		PZero: 0.01,
	}
	zeroes := 0
	for i := 0; i < 20000; i++ {
		v := sd.Sample(r)
		if v < 0 || v > 1<<20 {
			t.Fatalf("size %d outside clamp", v)
		}
		if v == 0 {
			zeroes++
		}
	}
	if zeroes == 0 {
		t.Fatal("expected some zero-byte files")
	}
}

func TestExponentialMoments(t *testing.T) {
	// At a fixed seed the empirical mean and variance of exponential
	// inter-arrival samples must match 1/rate and 1/rate^2 within a few
	// percent — the distribution test the loadgen arrival process leans on.
	r := NewRand(11)
	e := Exponential{Rate: 250} // 250 req/s -> mean gap 4ms
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := e.Sample(r)
		if v < 0 {
			t.Fatalf("negative inter-arrival time %g", v)
		}
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	wantMean := 1.0 / e.Rate
	wantVar := 1.0 / (e.Rate * e.Rate)
	if math.Abs(mean-wantMean)/wantMean > 0.02 {
		t.Fatalf("mean = %g; want %g within 2%%", mean, wantMean)
	}
	if math.Abs(variance-wantVar)/wantVar > 0.05 {
		t.Fatalf("variance = %g; want %g within 5%%", variance, wantVar)
	}
}

func TestExponentialDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	e := Exponential{Rate: 10}
	for i := 0; i < 1000; i++ {
		if e.Sample(a) != e.Sample(b) {
			t.Fatal("exponential sampling not deterministic")
		}
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for rate <= 0")
		}
	}()
	Exponential{Rate: 0}.Sample(NewRand(1))
}

func TestLogBucketRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose [lo, hi) range contains it,
	// and bucket bounds must tile the axis with no gaps or overlaps.
	values := []int64{0, 1, 31, 32, 33, 63, 64, 65, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, math.MaxInt64}
	for _, v := range values {
		i := logBucket(v)
		lo, hi := LogBucketLo(i), LogBucketHi(i)
		// The topmost bucket's bound saturates at MaxInt64, which is then
		// inclusive.
		if v < lo || (v >= hi && !(v == math.MaxInt64 && hi == math.MaxInt64)) {
			t.Fatalf("value %d in bucket %d with range [%d,%d)", v, i, lo, hi)
		}
	}
	for i := 0; i < 4*logHistSub; i++ {
		if LogBucketHi(i) != LogBucketLo(i+1) {
			t.Fatalf("bucket %d hi %d != bucket %d lo %d", i, LogBucketHi(i), i+1, LogBucketLo(i+1))
		}
	}
}

func TestLogHistRelativeError(t *testing.T) {
	// The quantization error of any recorded value is bounded by one
	// sub-bucket width: 1/logHistSub of the value.
	var h LogHist
	r := NewRand(9)
	for i := 0; i < 5000; i++ {
		v := int64(1 + r.Intn(1<<30))
		i := logBucket(v)
		lo, hi := LogBucketLo(i), LogBucketHi(i)
		if float64(hi-lo) > float64(v)/float64(logHistSub)+1 {
			t.Fatalf("bucket width %d too wide for value %d", hi-lo, v)
		}
		h.Record(v)
	}
	if h.Count() != 5000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestLogHistQuantileInterpolates(t *testing.T) {
	// With all mass inside one wide bucket, quantiles must move smoothly
	// across the bucket rather than snapping to an edge (nearest-rank).
	// Bucket at 2^20 spans [1048576, 1081344) — both values land in it.
	var h LogHist
	for i := 0; i < 500; i++ {
		h.Record(1 << 20)
		h.Record(1<<20 + 30000)
	}
	lo := float64(int64(1) << 20)
	q25, q75 := h.Quantile(25), h.Quantile(75)
	if !(q25 > lo && q75 > q25 && q75 < float64(h.max)) {
		t.Fatalf("quantiles not interpolating within bucket: q25=%g q75=%g", q25, q75)
	}
	// Interpolation must never escape the observed range.
	if h.Quantile(99.99) > float64(h.max) || h.Quantile(0.01) < float64(h.min) {
		t.Fatal("quantile escaped [min,max]")
	}
}

func TestLogHistQuantileAccuracy(t *testing.T) {
	// Against a known sample, every reported quantile must be within one
	// sub-bucket (~3%) of the exact nearest-rank percentile.
	var h LogHist
	r := NewRand(13)
	xs := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(100 + r.ExpFloat64()*50000)
		xs = append(xs, v)
		h.Record(v)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for _, p := range []float64{1, 25, 50, 90, 99, 99.9} {
		exact := float64(xs[int(math.Ceil(p/100*float64(len(xs))))-1]) // nearest rank
		got := h.Quantile(p)
		if math.Abs(got-exact)/exact > 2.0/logHistSub {
			t.Fatalf("P%g = %g; exact %g (rel err %g)", p, got, exact, math.Abs(got-exact)/exact)
		}
	}
}

func TestLogHistMoments(t *testing.T) {
	var a LogHist
	for i := int64(1); i <= 200; i++ {
		a.Record(i)
	}
	if a.Count() != 200 || a.Quantile(0) != 1 || a.Quantile(100) != 200 {
		t.Fatalf("moments: n=%d min=%g max=%g", a.Count(), a.Quantile(0), a.Quantile(100))
	}
	var empty LogHist
	if empty.Quantile(50) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestLogHistNegativeClamps(t *testing.T) {
	var h LogHist
	h.Record(-5)
	if h.Count() != 1 || h.min != 0 || h.max != 0 {
		t.Fatalf("negative record not clamped: %+v", h)
	}
}

func TestDeterminism(t *testing.T) {
	// Two generators with the same seed must produce identical streams.
	a, b := NewRand(42), NewRand(42)
	z1, z2 := NewZipf(100, 0.8), NewZipf(100, 0.8)
	for i := 0; i < 1000; i++ {
		if z1.Rank(a) != z2.Rank(b) {
			t.Fatal("Zipf sampling not deterministic")
		}
	}
}

func BenchmarkZipfRank(b *testing.B) {
	r := NewRand(1)
	z := NewZipf(1_000_000, 0.8)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = z.Rank(r)
	}
}

func BenchmarkTruncNormal(b *testing.B) {
	r := NewRand(1)
	tn := TruncNormal{Mean: 27, Sigma: 10.8, Lo: 2, Hi: 51}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tn.Sample(r)
	}
}
