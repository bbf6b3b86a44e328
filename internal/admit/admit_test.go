package admit

import (
	"context"
	"errors"
	"fmt"
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
	if c.Admitted() != 5 || c.Shed() != 1 {
		t.Fatalf("counters: admitted=%d shed=%d", c.Admitted(), c.Shed())
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

// offerAll submits n arrivals gap apart and returns the decisions in
// arrival order.
func offerAll(c *Controller, n int, start time.Time, gap time.Duration) []Decision {
	out := make([]Decision, n)
	for i := 0; i < n; i++ {
		i := i
		c.Offer(start.Add(time.Duration(i)*gap), func(d Decision) { out[i] = d })
	}
	c.Drain()
	return out
}

func TestOfferGrantsAtTokenTimes(t *testing.T) {
	// Rate 100/s => one token per 10ms. Arrivals every 1ms: the first is
	// served at once (full bucket), later ones wait for their token.
	c := New(Config{Rate: 100, Burst: 1, Depth: 10})
	ds := offerAll(c, 4, vt(0), time.Millisecond)
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
	if got := c.Admitted(); got != 4 {
		t.Fatalf("admitted = %d", got)
	}
}

func TestOfferDropTailShedsArrivals(t *testing.T) {
	// Depth 2, one token burst: arrival 0 is served, 1 and 2 queue,
	// 3 and 4 shed (tail drop), leaving the queue order FIFO.
	c := New(Config{Rate: 10, Burst: 1, Depth: 2})
	ds := offerAll(c, 5, vt(0), time.Millisecond)
	wantGrant := []bool{true, true, true, false, false}
	for i, w := range wantGrant {
		if ds[i].Granted != w {
			t.Fatalf("arrival %d granted=%v want %v (%+v)", i, ds[i].Granted, w, ds)
		}
	}
	// FIFO service: arrival 1 served before arrival 2.
	if !ds[1].At.Before(ds[2].At) {
		t.Fatalf("FIFO order violated: %v vs %v", ds[1].At, ds[2].At)
	}
	if c.Shed() != 2 {
		t.Fatalf("shed = %d", c.Shed())
	}
}

func TestOfferDeterministic(t *testing.T) {
	run := func() string {
		c := New(Config{Rate: 250, Burst: 4, Depth: 8})
		ds := offerAll(c, 200, vt(0), 700*time.Microsecond)
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
	// Wait until the second call is parked.
	for c.QueueLen() == 0 {
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
	if c.QueueLen() != 0 {
		t.Fatalf("abandoned waiter left in queue: %d", c.QueueLen())
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
	if got := c.Admitted(); got < admitted {
		// Counter may exceed observed admits (a granted-then-cancelled
		// race) but never undercount.
		t.Fatalf("admitted counter %d < observed %d", got, admitted)
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
	if _, ok := m[CtrQueueLen]; !ok {
		t.Fatal("queue length gauge missing")
	}
}

func TestNewDefaultsAndPanics(t *testing.T) {
	c := New(Config{Rate: 10})
	if c.Config().Burst != 1 || c.Config().Depth != 1 {
		t.Fatalf("defaults: %+v", c.Config())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for rate <= 0")
		}
	}()
	New(Config{Rate: 0})
}
