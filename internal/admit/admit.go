// Package admit is per-node admission control: a token bucket bounding
// the sustained request rate whose debt is a bounded FIFO queue
// absorbing bursts; when the queue is full the arriving request is shed
// (drop-tail). Requests the node cannot take are rejected with
// netsim.ErrOverloaded — a retryable, reroutable signal — instead of
// being accepted into an unbounded backlog where every request's
// latency grows without limit.
//
// There is one admission rule, a reservation: each arrival refills the
// bucket, is shed if taking a token would leave it below -Depth, and
// otherwise takes the token. A bucket in debt has promised its next
// tokens to the requests ahead, so an arrival that leaves it at -d
// waits d/Rate: the debt is a FIFO queue of Depth places served at
// Rate. Every entry point is one call to that rule:
//
//   - Reserve: virtual time, for the deterministic load generator. The
//     caller passes arrival times in nondecreasing order and gets each
//     decision at once, so a fixed schedule gives a bit-identical
//     decision schedule.
//   - TryAdmit: non-blocking, for the routed overlay path. The emulated
//     network delivers messages by direct call, so there is nothing to
//     make a request wait on; it is admitted or shed.
//   - Admit: blocking, for real TCP servers. The caller sleeps out its
//     wait; one that gives up first returns its token.
//
// All three share one bucket, so on a node they share one queue of
// Depth places.
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
	// Depth bounds the request queue, the bucket's token debt.
	// Defaults to 1.
	Depth int
	// Clock supplies the current time to TryAdmit and Admit; defaults
	// to time.Now. Reserve ignores it — the caller passes arrival times
	// explicitly.
	Clock func() time.Time
}

// Decision is the outcome of one reservation.
type Decision struct {
	// Granted reports whether the request was admitted.
	Granted bool
	// Wait is how long the request queues before its token exists:
	// zero when a token was free, and zero if shed.
	Wait time.Duration
}

// Controller is one node's admission control. Safe for concurrent use.
type Controller struct {
	cfg Config

	mu     sync.Mutex
	tokens float64 // negative while requests queue (token debt)
	last   time.Time

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

// refilled returns the bucket's tokens at time now, capped at Burst.
// The bucket starts full, so the first refill, from the zero time, is
// a no-op.
func (c *Controller) refilled(now time.Time) float64 {
	if d := now.Sub(c.last); d > 0 {
		return min(c.tokens+d.Seconds()*c.cfg.Rate, float64(c.cfg.Burst))
	}
	return c.tokens
}

// reserveLocked is the admission rule. It refills the bucket to now,
// sheds the request if its token would take the debt past Depth, and
// otherwise takes the token; the request then waits until the debt
// ahead of it has refilled. Admitted requests are counted by the
// caller, which knows when one is served.
func (c *Controller) reserveLocked(now time.Time) Decision {
	c.tokens = c.refilled(now)
	if now.After(c.last) {
		c.last = now
	}
	if c.tokens-1 < -float64(c.cfg.Depth) {
		c.shed++
		return Decision{}
	}
	c.tokens--
	d := Decision{Granted: true}
	if c.tokens < 0 {
		d.Wait = time.Duration(math.Round(-c.tokens / c.cfg.Rate * float64(time.Second)))
	}
	return d
}

func (c *Controller) overloaded() error {
	return fmt.Errorf("%w: queue depth %d exceeded", netsim.ErrOverloaded, c.cfg.Depth)
}

// Reserve admits or sheds a request arriving at virtual time t;
// arrivals must come in nondecreasing t order. A granted request is
// served at t plus the decision's Wait.
func (c *Controller) Reserve(t time.Time) Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.reserveLocked(t)
	if d.Granted {
		c.admitted++
	}
	return d
}

// TryAdmit is the non-blocking entry point used on the routed overlay
// path: a request is admitted as long as the bucket stays above
// -Depth, so at most Burst+Depth requests are absorbed beyond the
// sustained rate before rejection starts. Returns nil or an error
// wrapping netsim.ErrOverloaded.
func (c *Controller) TryAdmit() error {
	if !c.Reserve(c.cfg.Clock()).Granted {
		return c.overloaded()
	}
	return nil
}

// Admit is the blocking entry point used by real TCP servers. It
// returns nil once the caller's token exists, an ErrOverloaded-wrapping
// error if the queue is full, or the context's error if the caller gave
// up first — in which case its token goes back to the bucket.
func (c *Controller) Admit(ctx context.Context) error {
	c.mu.Lock()
	d := c.reserveLocked(c.cfg.Clock())
	if d.Granted && d.Wait == 0 {
		c.admitted++
	}
	c.mu.Unlock()
	if !d.Granted {
		return c.overloaded()
	}
	if d.Wait == 0 {
		return nil
	}
	timer := time.NewTimer(d.Wait)
	defer timer.Stop()
	select {
	case <-timer.C:
		c.mu.Lock()
		c.admitted++
		c.waitNanos += d.Wait.Nanoseconds()
		c.mu.Unlock()
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		c.tokens = min(c.tokens+1, float64(c.cfg.Burst))
		c.mu.Unlock()
		return netsim.CtxErr(ctx)
	}
}

// ObsCounters implements obs.CounterSource, exporting admission
// counters into node snapshots and Prometheus exposition. The queue
// length is the debt at read time; reading changes no state.
func (c *Controller) ObsCounters() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	queued := int64(0)
	if t := c.refilled(c.cfg.Clock()); t < 0 {
		queued = int64(math.Ceil(-t))
	}
	return map[string]int64{
		CtrAdmitted:  c.admitted,
		CtrShed:      c.shed,
		CtrWaitNanos: c.waitNanos,
		CtrQueueLen:  queued,
	}
}

// Counter names exported through obs.CounterSource.
const (
	CtrAdmitted  = "admit_admitted_total"
	CtrShed      = "admit_shed_total"
	CtrWaitNanos = "admit_wait_ns_total"
	CtrQueueLen  = "admit_queue_len"
)
