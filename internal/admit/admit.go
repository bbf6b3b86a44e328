// Package admit is per-node admission control: a token bucket bounding
// the sustained request rate and a bounded FIFO queue absorbing bursts;
// when the queue is full the arriving request is shed (drop-tail).
// Requests the node cannot take are rejected with netsim.ErrOverloaded
// — a retryable, reroutable signal — instead of being accepted into an
// unbounded backlog where every request's latency grows without limit.
//
// The controller runs in three modes, sharing one token-bucket state:
//
//   - TryAdmit: non-blocking, for the routed overlay path. The emulated
//     network delivers messages by direct call, so there is nothing to
//     make a request wait on; the queue is modeled as token debt (the
//     bucket may go negative down to -Depth).
//   - Admit: blocking, for real TCP servers. Callers park in an explicit
//     waiter queue; a dispatcher goroutine grants them as tokens refill.
//   - Offer/Drain: virtual time, for the deterministic load generator.
//     The driver owns the clock; arrivals are submitted in time order
//     and grants/sheds resolve synchronously at exact token times, so a
//     fixed seed gives a bit-identical schedule.
package admit

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"past/internal/netsim"
)

// Config shapes a node's admission controller.
type Config struct {
	// Rate is the sustained admission rate in requests per second.
	Rate float64
	// Burst is the token-bucket capacity: how many requests may be
	// admitted back to back after an idle period. Defaults to 1.
	Burst int
	// Depth bounds the request queue (waiters in blocking mode, token
	// debt in non-blocking mode). Defaults to 1.
	Depth int
	// Clock supplies the current time in blocking and non-blocking
	// modes; defaults to time.Now. Virtual-time Offer ignores it — the
	// driver passes arrival times explicitly.
	Clock func() time.Time
}

// waiter is one parked Admit call or one virtual-time Offer.
type waiter struct {
	arrived time.Time
	// ch resolves a blocking Admit (nil error = admitted). Nil for
	// virtual offers.
	ch chan error
	// fn resolves a virtual Offer. Nil for blocking waiters.
	fn func(Decision)
}

// Decision is the outcome of a virtual-time Offer.
type Decision struct {
	// Granted reports whether the request was admitted.
	Granted bool
	// At is the virtual time the request was granted service (equals
	// the arrival time when a token was free). Zero if shed.
	At time.Time
	// Wait is At minus the arrival time.
	Wait time.Duration
}

// Controller is one node's admission control. Safe for concurrent use.
type Controller struct {
	cfg Config

	mu     sync.Mutex
	tokens float64 // may go negative (token debt) in TryAdmit mode
	last   time.Time
	inited bool
	queue  []waiter
	// dispatching reports whether the blocking-mode dispatcher
	// goroutine is running.
	dispatching bool

	admitted  int64
	shed      int64
	waitNanos int64
}

// New creates a controller. Rate must be > 0; Burst and Depth default
// to 1 when unset.
func New(cfg Config) *Controller {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("admit: rate must be > 0, got %g", cfg.Rate))
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 1
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Controller{cfg: cfg, tokens: float64(cfg.Burst)}
}

// Config returns the controller's (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// tokenWait returns how long until the bucket holds one token,
// rounded to the nearest nanosecond so virtual grant times don't
// accumulate float-truncation drift.
func tokenWait(tokens, rate float64) time.Duration {
	if tokens >= 1 {
		return 0
	}
	return time.Duration(math.Round((1 - tokens) / rate * float64(time.Second)))
}

// refillLocked advances the bucket to time now.
func (c *Controller) refillLocked(now time.Time) {
	if !c.inited {
		c.inited = true
		c.last = now
		return
	}
	if d := now.Sub(c.last); d > 0 {
		c.tokens += d.Seconds() * c.cfg.Rate
		if c.tokens > float64(c.cfg.Burst) {
			c.tokens = float64(c.cfg.Burst)
		}
		c.last = now
	}
}

// TryAdmit is the non-blocking entry point used on the routed overlay
// path. The bounded queue is modeled as token debt: a request is
// admitted as long as the bucket stays above -Depth, so at most
// Burst+Depth requests are absorbed beyond the sustained rate before
// rejection starts. Returns nil or an error wrapping
// netsim.ErrOverloaded.
func (c *Controller) TryAdmit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refillLocked(c.cfg.Clock())
	if c.tokens-1 >= -float64(c.cfg.Depth) {
		c.tokens--
		c.admitted++
		return nil
	}
	c.shed++
	return fmt.Errorf("%w: queue depth %d exceeded", netsim.ErrOverloaded, c.cfg.Depth)
}

// Admit is the blocking entry point used by real TCP servers. It
// returns nil once a token is granted, an ErrOverloaded-wrapping error
// if the queue is full, or the context's error if the caller gave up
// first.
func (c *Controller) Admit(ctx context.Context) error {
	c.mu.Lock()
	now := c.cfg.Clock()
	c.refillLocked(now)
	// Fast path: a token is free and nobody is ahead of us.
	if len(c.queue) == 0 && c.tokens >= 1 {
		c.tokens--
		c.admitted++
		c.mu.Unlock()
		return nil
	}
	if len(c.queue) >= c.cfg.Depth {
		c.shed++
		c.mu.Unlock()
		return fmt.Errorf("%w: queue depth %d exceeded", netsim.ErrOverloaded, c.cfg.Depth)
	}
	w := waiter{arrived: now, ch: make(chan error, 1)}
	c.queue = append(c.queue, w)
	if !c.dispatching {
		c.dispatching = true
		go c.dispatch()
	}
	c.mu.Unlock()

	select {
	case err := <-w.ch:
		return err
	case <-ctx.Done():
		c.abandon(w.ch)
		return netsim.CtxErr(ctx)
	}
}

// abandon removes a waiter whose caller gave up. If the dispatcher
// already resolved it, the buffered channel just gets garbage
// collected.
func (c *Controller) abandon(ch chan error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.queue {
		if c.queue[i].ch == ch {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// dispatch grants queued waiters as tokens refill. It exits when the
// queue empties.
func (c *Controller) dispatch() {
	for {
		c.mu.Lock()
		now := c.cfg.Clock()
		c.refillLocked(now)
		if len(c.queue) == 0 {
			c.dispatching = false
			c.mu.Unlock()
			return
		}
		if c.tokens >= 1 {
			w := c.queue[0]
			c.queue = append(c.queue[:0], c.queue[1:]...)
			c.tokens--
			c.admitted++
			c.waitNanos += now.Sub(w.arrived).Nanoseconds()
			w.ch <- nil
			c.mu.Unlock()
			continue
		}
		// Sleep until the next token arrives.
		d := tokenWait(c.tokens, c.cfg.Rate)
		c.mu.Unlock()
		if d < time.Microsecond {
			d = time.Microsecond
		}
		time.Sleep(d)
	}
}

// Offer submits a request arriving at virtual time t; arrivals must be
// submitted in nondecreasing t order. fn is called exactly once —
// possibly during this call, possibly during a later Offer or Drain —
// with the grant or shed decision. All resolution happens synchronously
// on the caller's goroutine, so a fixed arrival schedule yields a
// bit-identical decision schedule.
func (c *Controller) Offer(t time.Time, fn func(Decision)) {
	c.mu.Lock()
	var resolved []func()
	c.advanceLocked(t, &resolved)
	if len(c.queue) == 0 && c.tokens >= 1 {
		c.tokens--
		c.admitted++
		resolved = append(resolved, func() { fn(Decision{Granted: true, At: t}) })
	} else if len(c.queue) >= c.cfg.Depth {
		c.shed++
		resolved = append(resolved, func() { fn(Decision{}) })
	} else {
		c.queue = append(c.queue, waiter{arrived: t, fn: fn})
	}
	c.mu.Unlock()
	for _, r := range resolved {
		r()
	}
}

// advanceLocked grants queued virtual waiters whose token-arrival times
// fall at or before t. Grant callbacks are appended to resolved and run
// by the caller outside the lock.
func (c *Controller) advanceLocked(t time.Time, resolved *[]func()) {
	if !c.inited {
		c.inited = true
		c.last = t
		return
	}
	for len(c.queue) > 0 {
		// Virtual time at which the next token exists.
		g := c.last.Add(tokenWait(c.tokens, c.cfg.Rate))
		if g.After(t) {
			break
		}
		c.refillLocked(g)
		w := c.queue[0]
		c.queue = append(c.queue[:0], c.queue[1:]...)
		c.tokens--
		c.admitted++
		wait := g.Sub(w.arrived)
		c.waitNanos += wait.Nanoseconds()
		fn, at := w.fn, g
		*resolved = append(*resolved, func() { fn(Decision{Granted: true, At: at, Wait: wait}) })
	}
	c.refillLocked(t)
}

// Drain resolves all still-queued virtual offers at their natural
// token-arrival times. Call once after the last Offer.
func (c *Controller) Drain() {
	c.mu.Lock()
	var resolved []func()
	for len(c.queue) > 0 {
		g := c.last.Add(tokenWait(c.tokens, c.cfg.Rate))
		c.advanceLocked(g, &resolved)
	}
	c.mu.Unlock()
	for _, r := range resolved {
		r()
	}
}

// Admitted returns the number of requests granted.
func (c *Controller) Admitted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admitted
}

// Shed returns the number of requests rejected with ErrOverloaded.
func (c *Controller) Shed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shed
}

// QueueLen returns the current number of queued requests.
func (c *Controller) QueueLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// ObsCounters implements obs.CounterSource, exporting admission
// counters into node snapshots and Prometheus exposition.
func (c *Controller) ObsCounters() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return map[string]int64{
		CtrAdmitted:  c.admitted,
		CtrShed:      c.shed,
		CtrWaitNanos: c.waitNanos,
		CtrQueueLen:  int64(len(c.queue)),
	}
}

// Counter names exported through obs.CounterSource.
const (
	CtrAdmitted  = "admit_admitted_total"
	CtrShed      = "admit_shed_total"
	CtrWaitNanos = "admit_wait_ns_total"
	CtrQueueLen  = "admit_queue_len"
)
