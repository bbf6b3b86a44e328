package admit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"past/internal/netsim"
)

// vt returns a fixed virtual-time origin plus an offset.
func vt(ms int) time.Time {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return base.Add(time.Duration(ms) * time.Millisecond)
}

func TestTryAdmitTokenDebt(t *testing.T) {
	// Rate 1000/s, burst 2, depth 3: from a full bucket, 2 burst tokens
	// plus 3 debt slots admit 5 back-to-back requests; the 6th sheds.
	now := vt(0)
	c := New(Config{Rate: 1000, Burst: 2, Depth: 3, Clock: func() time.Time { return now }})
	for i := 0; i < 5; i++ {
		if err := c.TryAdmit(); err != nil {
			t.Fatalf("request %d rejected: %v", i, err)
		}
	}
	err := c.TryAdmit()
	if !errors.Is(err, netsim.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if !netsim.Retryable(err) {
		t.Fatal("overload must be retryable")
	}
	if m := c.ObsCounters(); m[CtrAdmitted] != 5 || m[CtrShed] != 1 {
		t.Fatalf("counters: %v", m)
	}
	// One token refills per millisecond; advancing 2ms readmits 2.
	now = vt(2)
	if err := c.TryAdmit(); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if err := c.TryAdmit(); err != nil {
		t.Fatalf("after refill 2: %v", err)
	}
	if err := c.TryAdmit(); !errors.Is(err, netsim.ErrOverloaded) {
		t.Fatalf("debt must be capped again: %v", err)
	}
}

// reserveAll reserves n arrivals gap apart and returns the decisions in
// arrival order.
func reserveAll(c *Controller, n int, start time.Time, gap time.Duration) []Decision {
	out := make([]Decision, n)
	for i := range out {
		out[i] = c.Reserve(start.Add(time.Duration(i) * gap))
	}
	return out
}

func TestOfferGrantsAtTokenTimes(t *testing.T) {
	// Rate 100/s => one token per 10ms. Arrivals every 1ms: the first is
	// served at once (full bucket), later ones wait for their token.
	c := New(Config{Rate: 100, Burst: 1, Depth: 10})
	ds := reserveAll(c, 4, vt(0), time.Millisecond)
	if !ds[0].Granted || ds[0].Wait != 0 {
		t.Fatalf("first arrival: %+v", ds[0])
	}
	// Second arrival at t=1ms, token at t=10ms -> wait 9ms.
	if !ds[1].Granted || ds[1].Wait != 9*time.Millisecond {
		t.Fatalf("second arrival: %+v", ds[1])
	}
	if !ds[2].Granted || ds[2].Wait != 18*time.Millisecond {
		t.Fatalf("third arrival: %+v", ds[2])
	}
	if got := c.ObsCounters()[CtrAdmitted]; got != 4 {
		t.Fatalf("admitted = %d", got)
	}
}

func TestOfferDropTailShedsArrivals(t *testing.T) {
	// Depth 2, one token burst: arrival 0 is served, 1 and 2 queue,
	// 3 and 4 shed (tail drop), leaving the queue order FIFO.
	c := New(Config{Rate: 10, Burst: 1, Depth: 2})
	ds := reserveAll(c, 5, vt(0), time.Millisecond)
	wantGrant := []bool{true, true, true, false, false}
	for i, w := range wantGrant {
		if ds[i].Granted != w {
			t.Fatalf("arrival %d granted=%v want %v (%+v)", i, ds[i].Granted, w, ds)
		}
	}
	// FIFO service: arrival 1 (at 1ms) is served one token after
	// arrival 0, and arrival 2 (at 2ms) one token after arrival 1.
	served := func(i int) time.Duration { return time.Duration(i)*time.Millisecond + ds[i].Wait }
	if served(1) != 100*time.Millisecond || served(2) != 200*time.Millisecond {
		t.Fatalf("FIFO order violated: served at %v and %v", served(1), served(2))
	}
	if got := c.ObsCounters()[CtrShed]; got != 2 {
		t.Fatalf("shed = %d", got)
	}
}

func TestOfferDeterministic(t *testing.T) {
	run := func() string {
		c := New(Config{Rate: 250, Burst: 4, Depth: 8})
		ds := reserveAll(c, 200, vt(0), 700*time.Microsecond)
		s := ""
		for _, d := range ds {
			s += fmt.Sprintf("%v/%d;", d.Granted, d.Wait.Nanoseconds())
		}
		return s
	}
	if run() != run() {
		t.Fatal("identical arrival schedules produced different decisions")
	}
}

func TestAdmitBlockingGrantsAndSheds(t *testing.T) {
	// Real-clock blocking mode: burst 1, rate 50/s (20ms per token),
	// depth 1. First call immediate; second queues and is granted after
	// ~20ms; third (while second queued) sheds.
	c := New(Config{Rate: 50, Burst: 1, Depth: 1})
	if err := c.Admit(context.Background()); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	var wg sync.WaitGroup
	second := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		second <- c.Admit(context.Background())
	}()
	// Wait until the second call holds its place in the queue.
	for c.ObsCounters()[CtrQueueLen] == 0 {
		time.Sleep(time.Millisecond)
	}
	err := c.Admit(context.Background())
	if !errors.Is(err, netsim.ErrOverloaded) {
		t.Fatalf("third admit: want ErrOverloaded, got %v", err)
	}
	wg.Wait()
	if err := <-second; err != nil {
		t.Fatalf("queued admit: %v", err)
	}
}

func TestAdmitContextCancellation(t *testing.T) {
	c := New(Config{Rate: 1, Burst: 1, Depth: 4})
	if err := c.Admit(context.Background()); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := c.Admit(ctx)
	if !errors.Is(err, netsim.ErrTimeout) {
		t.Fatalf("want deadline mapped to ErrTimeout, got %v", err)
	}
	// The abandoned reservation returned its token: the queue is empty
	// and only the first call counts as admitted.
	if m := c.ObsCounters(); m[CtrQueueLen] != 0 || m[CtrAdmitted] != 1 || m[CtrWaitNanos] != 0 {
		t.Fatalf("abandoned reservation left state behind: %v", m)
	}
}

func TestAdmitConcurrentClients(t *testing.T) {
	// Race-hunting load: many goroutines hammer one controller. Every
	// call must resolve exactly once, and counters must reconcile.
	c := New(Config{Rate: 20000, Burst: 16, Depth: 8})
	const clients = 32
	const perClient = 50
	var admitted, shed, ctxerr int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
				err := c.Admit(ctx)
				cancel()
				mu.Lock()
				switch {
				case err == nil:
					admitted++
				case errors.Is(err, netsim.ErrOverloaded):
					shed++
				default:
					ctxerr++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if admitted+shed+ctxerr != clients*perClient {
		t.Fatalf("lost calls: %d+%d+%d != %d", admitted, shed, ctxerr, clients*perClient)
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if m := c.ObsCounters(); m[CtrAdmitted] != admitted || m[CtrShed] != shed {
		t.Fatalf("counters %v; observed admitted=%d shed=%d", m, admitted, shed)
	}
}

func TestObsCounters(t *testing.T) {
	now := vt(0)
	c := New(Config{Rate: 1000, Burst: 1, Depth: 1, Clock: func() time.Time { return now }})
	c.TryAdmit()
	c.TryAdmit()
	c.TryAdmit() // shed
	m := c.ObsCounters()
	if m[CtrAdmitted] != 2 || m[CtrShed] != 1 {
		t.Fatalf("counters: %v", m)
	}
	// Two tokens taken from a bucket of one: one request's worth of
	// debt, read without changing it.
	if m[CtrQueueLen] != 1 {
		t.Fatalf("queue length %d, want 1", m[CtrQueueLen])
	}
	if again := c.ObsCounters(); again[CtrQueueLen] != 1 || c.tokens != -1 {
		t.Fatalf("reading counters changed state: %v tokens=%g", again, c.tokens)
	}
}

func TestNewDefaultsAndPanics(t *testing.T) {
	c := New(Config{Rate: 10})
	if c.cfg.Burst != 1 || c.cfg.Depth != 1 {
		t.Fatalf("defaults: %+v", c.cfg)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for rate <= 0")
		}
	}()
	New(Config{Rate: 0})
}

// fifoRef is a token bucket beside an explicit FIFO queue of at most
// depth waiters, granted one per refilled token at exact virtual token
// times — the queue this package once kept for virtual time, with
// Offer/Drain on top. It is the reference for the claim that Reserve's
// token debt is that queue: same grants and sheds, same waits.
//
// It keeps virtual time as float64 seconds, not time.Time: rounding
// each grant time to a nanosecond, with the refill capped at Burst 1,
// drops every rounded-up excess, so grants drift late by a fraction of
// a nanosecond apiece — tens of nanoseconds within a few hundred
// arrivals — and an arrival that close to the head's grant would get
// the other decision.
type fifoRef struct {
	rate         float64
	burst, depth int
	tokens       float64
	last         float64 // seconds
	queue        []refWaiter
	out          []Decision
}

type refWaiter struct {
	i       int
	arrived float64
}

func (r *fifoRef) refill(now float64) {
	if now > r.last {
		r.tokens = math.Min(r.tokens+(now-r.last)*r.rate, float64(r.burst))
		r.last = now
	}
}

// advance grants queued waiters whose tokens exist by time t.
func (r *fifoRef) advance(t float64) {
	for len(r.queue) > 0 {
		g := r.last + math.Max(0, 1-r.tokens)/r.rate
		if g > t {
			break
		}
		r.refill(g)
		w := r.queue[0]
		r.queue = r.queue[1:]
		r.tokens--
		r.out[w.i] = Decision{Granted: true, Wait: time.Duration(math.Round((g - w.arrived) * float64(time.Second)))}
	}
	r.refill(t)
}

func (r *fifoRef) offer(i int, t float64) {
	r.advance(t)
	switch {
	case len(r.queue) == 0 && r.tokens >= 1:
		r.tokens--
		r.out[i] = Decision{Granted: true}
	case len(r.queue) >= r.depth:
		r.out[i] = Decision{}
	default:
		r.queue = append(r.queue, refWaiter{i, t})
	}
}

func (r *fifoRef) drain() { r.advance(math.Inf(1)) }

func TestReserveMatchesFIFOReference(t *testing.T) {
	// Seeded random buckets under random schedules, from idle to 4x
	// overload, with bursts of simultaneous arrivals: Reserve must make
	// the reference queue's every grant and shed, with the same wait to
	// within float accumulation.
	rng := rand.New(rand.NewSource(54))
	const schedules, arrivals = 300, 2000
	var worst time.Duration
	for s := 0; s < schedules; s++ {
		rate := 10 + rng.Float64()*990
		burst, depth := 1+rng.Intn(8), 1+rng.Intn(16)
		load := 0.25 + rng.Float64()*3.75
		c := New(Config{Rate: rate, Burst: burst, Depth: depth})
		ref := &fifoRef{rate: rate, burst: burst, depth: depth, tokens: float64(burst),
			out: make([]Decision, arrivals)}
		got := make([]Decision, arrivals)
		at := vt(0)
		for i := range got {
			if rng.Intn(8) != 0 {
				at = at.Add(time.Duration(rng.ExpFloat64() / (rate * load) * float64(time.Second)))
			}
			got[i] = c.Reserve(at)
			ref.offer(i, at.Sub(vt(0)).Seconds())
		}
		ref.drain()
		for i, d := range got {
			want := ref.out[i]
			if d.Granted != want.Granted {
				t.Fatalf("schedule %d (rate %.1f burst %d depth %d) arrival %d: granted=%v, reference %v",
					s, rate, burst, depth, i, d.Granted, want.Granted)
			}
			diff := d.Wait - want.Wait
			if diff < 0 {
				diff = -diff
			}
			worst = max(worst, diff)
		}
	}
	if worst > time.Microsecond {
		t.Fatalf("largest wait difference from the reference %v, want <= 1us", worst)
	}
}
