package loadgen

import (
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"past/internal/id"
	"past/internal/stats"
	"past/internal/trace"
)

func TestConstantArrivals(t *testing.T) {
	a := newConstant(1000)
	for i := 0; i < 5; i++ {
		if got := a.Next(nil); got != time.Duration(i)*time.Millisecond {
			t.Fatalf("arrival %d at %v", i, got)
		}
	}
}

func TestPoissonArrivalsMeanGap(t *testing.T) {
	a := newPoisson(1000) // mean gap 1ms
	r := stats.NewRand(5)
	const n = 20000
	var last time.Duration
	var sum float64
	for i := 0; i < n; i++ {
		at := a.Next(r)
		if at < last {
			t.Fatal("arrival offsets must be nondecreasing")
		}
		sum += float64(at - last)
		last = at
	}
	mean := sum / n
	if math.Abs(mean-float64(time.Millisecond)) > 0.05*float64(time.Millisecond) {
		t.Fatalf("mean gap %v; want ~1ms", time.Duration(mean))
	}
}

func TestSquareWaveBursts(t *testing.T) {
	// 100ms period, first half at 1000/s, second half at 100/s: the
	// high phase must hold roughly 10x the low phase's arrivals.
	a := newSquareWave(100, 1000, 100*time.Millisecond, 0.5)
	high, low := 0, 0
	for i := 0; i < 2000; i++ {
		at := a.Next(nil)
		if at >= time.Second {
			break
		}
		if float64(at%(100*time.Millisecond)) < 0.5*float64(100*time.Millisecond) {
			high++
		} else {
			low++
		}
	}
	if high < 5*low || low == 0 {
		t.Fatalf("high %d low %d; want strongly burst-skewed", high, low)
	}
}

func TestScheduleMixAndReferences(t *testing.T) {
	w := DefaultSimConfig().Workload
	w.Files, w.LookupFrac = 50, 0.8
	ops := schedule(newConstant(1000), w, 5000, stats.NewRand(9))
	if len(ops) != 5000 {
		t.Fatalf("scheduled %d ops", len(ops))
	}
	inserted := 0
	lookups := 0
	for i, o := range ops {
		switch o.Op {
		case trace.OpInsert:
			if int(o.File) != inserted {
				t.Fatalf("op %d inserts file %d; want next new index %d", i, o.File, inserted)
			}
			if o.Size < 1 || o.Size > w.MaxPayload {
				t.Fatalf("op %d size %d outside [1,%d]", i, o.Size, w.MaxPayload)
			}
			inserted++
		case trace.OpLookup:
			if int(o.File) >= inserted {
				t.Fatalf("op %d looks up file %d before its insert", i, o.File)
			}
			lookups++
		}
		if i > 0 && o.At < ops[i-1].At {
			t.Fatal("schedule not time-ordered")
		}
	}
	if inserted != w.Files {
		t.Fatalf("population %d of %d inserted over 5000 requests", inserted, w.Files)
	}
	frac := float64(lookups) / 5000
	if frac < 0.9 { // 50 inserts of 5000 -> ~99% lookups
		t.Fatalf("lookup fraction %.2f; want dominated by lookups", frac)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	w := DefaultSimConfig().Workload
	w.Files = 20
	a := schedule(newPoisson(500), w, 1000, stats.NewRand(3))
	b := schedule(newPoisson(500), w, 1000, stats.NewRand(3))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// stallClient answers instantly except for one scripted request, which
// stalls; used to prove the driver measures from intended send time.
type stallClient struct {
	mu      sync.Mutex
	calls   int
	stallAt int
	stall   time.Duration
}

func (s *stallClient) serve() {
	s.mu.Lock()
	s.calls++
	doStall := s.calls == s.stallAt
	s.mu.Unlock()
	if doStall {
		time.Sleep(s.stall)
	}
}

func (s *stallClient) Insert(name string, size int64, content []byte) (id.File, error) {
	s.serve()
	var f id.File
	f[0] = 1 // any non-zero id; lookups only need a stable handle
	return f, nil
}

func (s *stallClient) Lookup(id.File) (bool, error) {
	s.serve()
	return true, nil
}

func TestNoCoordinatedOmission(t *testing.T) {
	// One 200ms server stall on a 2ms-per-request schedule with a
	// single sender: every request scheduled behind the stall is late,
	// and the recorded latency — measured from *intended* send time —
	// must expose that queueing delay. A driver that measured from
	// actual send time would report near-zero latency for every one of
	// them (the coordinated-omission error).
	sc := &stallClient{stallAt: 5, stall: 200 * time.Millisecond}
	cfg := DefaultSimConfig()
	cfg.Rate, cfg.Requests, cfg.Workload.Files = 500, 50, 8
	res, err := Run(cfg, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != 50 || res.Errors != 0 {
		t.Fatalf("run: %s", res)
	}
	if p99 := res.P(99); p99 < 100*time.Millisecond {
		t.Fatalf("p99 %v hides the 200ms stall: coordinated omission", p99)
	}
	if p50 := res.P(50); p50 < 20*time.Millisecond {
		t.Fatalf("p50 %v: the stall delayed most of the schedule, median must show it", p50)
	}
}

func TestRunOpenLoopAgainstStub(t *testing.T) {
	// Unbounded concurrency: a stall delays only the stalled request.
	sc := &stallClient{stallAt: 5, stall: 100 * time.Millisecond}
	cfg := DefaultSimConfig()
	cfg.Rate, cfg.Requests, cfg.Seed, cfg.Workload.Files = 2000, 100, 2, 8
	res, err := Run(cfg, 0, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != 100 || res.Errors != 0 {
		t.Fatalf("run: %s", res)
	}
	if res.Latency.Count() == 0 || res.OK == 0 {
		t.Fatalf("nothing recorded: %s", res)
	}
	if p50 := res.P(50); p50 > 50*time.Millisecond {
		t.Fatalf("open loop p50 %v; one stalled request must not drag the median", p50)
	}
}

func TestRunSimFingerprintBitIdentical(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Nodes, cfg.Seed, cfg.Requests, cfg.NodeRate = 15, 11, 600, 30
	cfg.Rate, cfg.Arrivals, cfg.Workload.Files = 300, "poisson", 40
	a, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == "" || a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints differ:\n%s\n%s", a.Fingerprint, b.Fingerprint)
	}
	if *a != *b {
		t.Fatalf("results differ:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 12
	c, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint == a.Fingerprint {
		t.Fatal("different seeds produced identical fingerprints")
	}
}

func TestRunSimSheddingBeatsUnboundedQueueAtOverload(t *testing.T) {
	// Offered 2x aggregate capacity: with an unbounded queue every
	// request is served eventually but waits grow without bound, so
	// goodput (completions within SLO) collapses and the tail explodes.
	// Bounded-queue shedding keeps served requests fast.
	base := DefaultSimConfig()
	base.Nodes, base.Seed, base.Requests, base.Workload.Files = 10, 21, 1500, 50
	base.NodeRate = 20 // aggregate capacity 200/s
	base.Rate = 400    // 2x capacity
	off := base
	off.Shed = false
	noShed, err := RunSim(off)
	if err != nil {
		t.Fatal(err)
	}
	shed, err := RunSim(base)
	if err != nil {
		t.Fatal(err)
	}
	if noShed.Shed != 0 {
		t.Fatalf("unbounded queue shed %d requests", noShed.Shed)
	}
	if shed.Shed == 0 {
		t.Fatal("admission control shed nothing at 2x capacity")
	}
	if shed.Goodput() <= noShed.Goodput() {
		t.Fatalf("goodput with shedding %.1f/s <= without %.1f/s",
			shed.Goodput(), noShed.Goodput())
	}
	if shed.P(99) >= noShed.P(99) {
		t.Fatalf("p99 with shedding %v >= without %v", shed.P(99), noShed.P(99))
	}
}

// TestRunSimRecordsOnlyRoutedLatency: a lookup scheduled before its
// insert was served is answered not-found without a route, and like Run
// RunSim keeps it out of the latency histogram. past-load's -rate 400
// contract run has 171 of them; everything it inserts is found.
func TestRunSimRecordsOnlyRoutedLatency(t *testing.T) {
	c, err := ParseCommand([]string{"-sim", "-seed", "1", "-nodes", "10", "-node-rate", "20",
		"-rate", "400", "-requests", "1500"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSim(c.Sim)
	if err != nil {
		t.Fatal(err)
	}
	if res.NotFound != 171 || res.Errors != 0 {
		t.Fatalf("run: %s; want 171 not-found lookups, no errors", res)
	}
	if got := res.Latency.Count(); got != res.OK {
		t.Fatalf("latency histogram holds %d requests; want the %d routed ones (OK), not the %d unrouted not-founds",
			got, res.OK, res.NotFound)
	}
}

// TestRunSimServesInServiceOrder: like a live cluster, RunSim answers a
// lookup not-found only if it is served before its insert. The test
// replays the no-shed 2x run's schedule and access-node draws through a
// token bucket per node (Burst tokens, unbounded FIFO queue) and counts
// the lookups whose service time falls before their insert's.
func TestRunSimServesInServiceOrder(t *testing.T) {
	c, err := ParseCommand([]string{"-sim", "-no-shed", "-seed", "1", "-nodes", "10", "-node-rate", "20",
		"-rate", "400", "-requests", "1500"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sc := c.Sim
	res, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}

	arr, err := newArrivals(sc.Arrivals, sc.Rate)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(sc.Seed)
	ops := schedule(arr, sc.Workload, sc.Requests, rng)
	tokens := make([]float64, sc.Nodes)
	last := make([]time.Duration, sc.Nodes)
	for i := range tokens {
		tokens[i] = float64(sc.Burst)
	}
	served := make([]time.Duration, len(ops))
	for i, o := range ops {
		n := rng.Intn(sc.Nodes)
		tokens[n] = math.Min(tokens[n]+(o.At-last[n]).Seconds()*sc.NodeRate, float64(sc.Burst))
		last[n] = o.At
		tokens[n]--
		served[i] = o.At
		if tokens[n] < 0 {
			served[i] += time.Duration(math.Round(-tokens[n] / sc.NodeRate * float64(time.Second)))
		}
	}
	insertServed := make(map[int32]time.Duration)
	var early int64
	for i, o := range ops {
		if o.Op == trace.OpInsert {
			insertServed[o.File] = served[i]
		} else if served[i] < insertServed[o.File] {
			early++
		}
	}
	if res.NotFound != early || res.Errors != 0 {
		t.Fatalf("run: %s; want %d not-found lookups (served before their insert), no errors", res, early)
	}
}
