package past

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"past/internal/id"
	"past/internal/netsim"
)

// RetryPolicy configures the client-side resilience layer around
// Insert, Lookup, and Reclaim: a budget of attempts separated by capped
// exponential backoff with deterministic seeded jitter, a per-attempt
// deadline, and (for lookups) hedging — a second attempt through a
// different first hop, exploiting the k replicas the system already
// pays for. A nil *RetryPolicy on Config disables the layer entirely:
// one attempt, no deadline, exactly the pre-resilience behavior.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per operation, including
	// the first. Zero or negative selects 3.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it, capped at MaxDelay. Zero means no backoff
	// sleeps, which is what the deterministic soak uses (the emulated
	// network has no real latency to wait out).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff. Zero with a positive
	// BaseDelay selects 32x BaseDelay.
	MaxDelay time.Duration
	// JitterSeed seeds the jitter RNG; a fixed seed makes the backoff
	// sequence (and therefore the whole retry schedule) reproducible.
	JitterSeed int64
	// Timeout bounds each individual attempt (the per-request deadline
	// layered over the per-RPC HopTimeout). Zero leaves attempts
	// bounded only by the caller's context.
	Timeout time.Duration
	// Hedge enables hedged lookups.
	Hedge bool
	// HedgeDelay selects the hedging mode. Zero is the sequential
	// failover hedge: the second attempt starts only after the first
	// fails, entering the overlay through a different first hop — fully
	// deterministic, so it is the mode the reproducible chaos soak
	// runs. A positive delay is the classical concurrent hedge: if the
	// primary has not answered within the delay, a second attempt races
	// it and the first success wins, the loser cancelled.
	HedgeDelay time.Duration
	// Sleep replaces time.Sleep for backoff waits (virtual-time
	// harnesses). Nil uses time.Sleep; with BaseDelay 0 it is never
	// called.
	Sleep func(time.Duration)
	// OverloadFactor multiplies the backoff before a retry whose
	// previous attempt failed with netsim.ErrOverloaded. An overloaded
	// replica needs its queue to drain, not an eager re-attempt that
	// deepens it — so overload backs off harder than a dead-node
	// timeout. Zero selects 2; 1 disables the extra backoff.
	OverloadFactor float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.MaxDelay == 0 && p.BaseDelay > 0 {
		p.MaxDelay = 32 * p.BaseDelay
	}
	if p.OverloadFactor <= 0 {
		p.OverloadFactor = 2
	}
	return p
}

// backoff returns the wait before retry number attempt (1-based):
// capped exponential growth from BaseDelay, jittered uniformly into
// [d/2, d] so synchronized clients spread out. The jitter draw comes
// from the policy's seeded RNG, so the schedule is reproducible.
func (p RetryPolicy) backoff(rng *rand.Rand, attempt int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

func (p RetryPolicy) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// recordHedge fires once per hedged attempt launched; won reports
// whether the hedge, not the primary, supplied the result.
func (n *Node) recordHedge(won bool) {
	n.stats.Hedges.Add(1)
	if won {
		n.stats.HedgeWins.Add(1)
	}
}

// retryState holds the node's per-policy RNG, created lazily so a Node
// without a policy pays nothing.
type retryState struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func (n *Node) retryJitter(pol RetryPolicy, attempt int) time.Duration {
	n.retry.mu.Lock()
	defer n.retry.mu.Unlock()
	if n.retry.rng == nil {
		n.retry.rng = rand.New(rand.NewSource(pol.JitterSeed))
	}
	return pol.backoff(n.retry.rng, attempt)
}

// retryLoop runs one client operation under the node's retry policy.
// fn performs a single attempt under its context (which carries the
// per-attempt deadline when the policy sets one). An attempt is retried
// when it fails with a transient delivery error (netsim.Retryable), or
// when unsatisfied reports its result as a soft failure — a lookup that
// came back not-found under faults may be a spurious miss worth another
// attempt. Fatal errors, context expiry, and budget exhaustion return
// the last outcome.
func retryLoop[R any](n *Node, ctx context.Context, unsatisfied func(*R) bool, fn func(context.Context) (*R, error)) (*R, error) {
	pol, ok := n.policy()
	if !ok {
		return fn(ctx)
	}
	var last *R
	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			n.stats.Retries.Add(1)
			d := n.retryJitter(pol, attempt)
			if lastErr != nil && errors.Is(lastErr, netsim.ErrOverloaded) {
				// Retryable-with-extra-backoff: give the shedding node's
				// queue time to drain before offering it more work.
				d = time.Duration(float64(d) * pol.OverloadFactor)
			}
			pol.sleep(d)
			if err := netsim.CtxErr(ctx); err != nil {
				break
			}
		}
		actx := ctx
		var cancel context.CancelFunc
		if pol.Timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, pol.Timeout)
		}
		res, err := fn(actx)
		if cancel != nil {
			cancel()
		}
		last, lastErr = res, err
		if err != nil {
			if netsim.Retryable(err) && netsim.CtxErr(ctx) == nil {
				continue
			}
			return res, err
		}
		if unsatisfied != nil && unsatisfied(res) {
			continue
		}
		return res, nil
	}
	return last, lastErr
}

// policy returns the effective retry policy and whether one is set.
func (n *Node) policy() (RetryPolicy, bool) {
	if n.cfg.Retry == nil {
		return RetryPolicy{}, false
	}
	return n.cfg.Retry.withDefaults(), true
}

// hedged runs one lookup-style attempt with hedging per the policy.
// route performs the attempt; avoid, when given, is excluded as the
// first hop (the hedge's entry-point diversity). ok classifies a
// returned reply as a success worth winning with.
func hedged[R any](n *Node, ctx context.Context, pol RetryPolicy, key id.Node,
	route func(ctx context.Context, avoid ...id.Node) (*R, error),
	ok func(*R) bool) (*R, error) {

	if !pol.Hedge {
		return route(ctx)
	}
	primaryHop := n.overlay.FirstHop(key)
	if !primaryHop.IsZero() && n.steerAroundLoad(primaryHop) {
		// The preferred entry point advertised saturation via a load
		// hint: swap the roles so the *primary* attempt enters through
		// an alternate first hop and the loaded one is only tried as
		// the fallback. No RNG draws — deterministic under fixed seeds.
		n.stats.LoadSteers.Add(1)
		inner := route
		route = func(ctx context.Context, avoid ...id.Node) (*R, error) {
			if len(avoid) == 0 {
				return inner(ctx, primaryHop)
			}
			return inner(ctx)
		}
	}
	if pol.HedgeDelay <= 0 {
		return hedgeSequential(n, ctx, primaryHop, route, ok)
	}
	return hedgeConcurrent(n, ctx, pol, primaryHop, route, ok)
}

// loadSteerThreshold is the hint level (out of 255) above which hedged
// lookups proactively avoid a first hop: ~78% queue occupancy.
const loadSteerThreshold = 200

// steerAroundLoad reports whether hop's last known load hint crosses
// the steering threshold. A consumed hint decays by half so avoidance
// is not permanent: unless fresh replies or sheds renew the signal, the
// hop is offered traffic again after a few operations.
func (n *Node) steerAroundLoad(hop id.Node) bool {
	n.loadMu.Lock()
	defer n.loadMu.Unlock()
	h := n.loadHints[hop]
	if h < loadSteerThreshold {
		return false
	}
	n.loadHints[hop] = h / 2
	return true
}

// hedgeSequential is the deterministic failover hedge: run the primary
// attempt to completion; only if it fails (transiently) or comes back
// unsatisfied does the hedge run, entering through a different first
// hop. Under the synchronous emulation an attempt completes in zero
// virtual time, so any positive virtual hedge delay could never fire
// before the primary resolved — sequential failover is the limit case,
// and it consumes no RNG draws from racing goroutines, preserving
// bit-reproducible chaos fingerprints.
func hedgeSequential[R any](n *Node, ctx context.Context, primaryHop id.Node,
	route func(ctx context.Context, avoid ...id.Node) (*R, error),
	ok func(*R) bool) (*R, error) {

	res, err := route(ctx)
	if err == nil && ok(res) {
		return res, nil
	}
	if err != nil && !netsim.Retryable(err) {
		return res, err
	}
	if primaryHop.IsZero() || netsim.CtxErr(ctx) != nil {
		return res, err // no distinct entry point, or out of time
	}
	hres, herr := route(ctx, primaryHop)
	if herr == nil && ok(hres) {
		n.recordHedge(true)
		return hres, nil
	}
	n.recordHedge(false)
	// Prefer the primary's outcome: it is the attempt a policy-less
	// client would have made.
	return res, err
}

// hedgeConcurrent is the classical hedge: the primary attempt runs on
// its own goroutine; if it has not resolved within HedgeDelay, a second
// attempt races it through a different first hop. The first success
// wins and the loser's context is cancelled. Exactly one of the two
// supplies the returned result.
func hedgeConcurrent[R any](n *Node, ctx context.Context, pol RetryPolicy, primaryHop id.Node,
	route func(ctx context.Context, avoid ...id.Node) (*R, error),
	ok func(*R) bool) (*R, error) {

	type outcome struct {
		res *R
		err error
	}
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	prim := make(chan outcome, 1)
	go func() {
		res, err := route(pctx)
		prim <- outcome{res, err}
	}()

	var primOut *outcome
	timer := time.NewTimer(pol.HedgeDelay)
	defer timer.Stop()
	select {
	case out := <-prim:
		if out.err == nil && ok(out.res) {
			return out.res, nil
		}
		if out.err != nil && !netsim.Retryable(out.err) {
			return out.res, out.err
		}
		primOut = &out // primary already failed; hedge immediately
	case <-timer.C:
		// Primary still in flight past the hedge delay.
	case <-ctx.Done():
		return nil, netsim.CtxErr(ctx)
	}
	if primaryHop.IsZero() {
		if primOut != nil {
			return primOut.res, primOut.err
		}
		out := <-prim
		return out.res, out.err
	}

	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	hch := make(chan outcome, 1)
	go func() {
		res, err := route(hctx, primaryHop)
		hch <- outcome{res, err}
	}()

	var hedgeOut *outcome
	for primOut == nil || hedgeOut == nil {
		select {
		case out := <-prim:
			primOut = &out
			if out.err == nil && ok(out.res) {
				hcancel() // hedge lost: cancel it
				n.recordHedge(false)
				return out.res, nil
			}
		case out := <-hch:
			hedgeOut = &out
			if out.err == nil && ok(out.res) {
				pcancel() // primary lost: cancel it
				n.recordHedge(true)
				return out.res, nil
			}
		case <-ctx.Done():
			n.recordHedge(false) // launched, and the caller gave up on both
			return nil, netsim.CtxErr(ctx)
		}
	}
	// Both resolved without a satisfying result: report the primary's.
	n.recordHedge(false)
	return primOut.res, primOut.err
}
