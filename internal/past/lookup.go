package past

import (
	"context"
	"fmt"

	"past/internal/id"
	"past/internal/obs"
	"past/internal/store"
)

// LookupResult reports the outcome of a Lookup.
type LookupResult struct {
	Found bool
	Size  int64
	// Content is the file payload (nil under size-only accounting).
	Content []byte
	// FromCache reports whether a cached copy (rather than one of the k
	// replicas) served the request.
	FromCache bool
	// Hops is the total fetch distance in overlay hops: routing hops to
	// the serving node plus the pointer chase to a diverted replica, if
	// any. A request served by the access point itself costs 0.
	Hops int
	// Indirect reports that the lookup reached a diverted replica
	// through a pointer — the one additional RPC the paper charges to
	// replica diversion (section 3.3).
	Indirect bool
	// Negative reports that the not-found answer came from this node's
	// negative cache — a recent full lookup already missed, so the
	// request was not routed at all. Only possible when the cache
	// engine's negative cache is enabled.
	Negative bool
	// Trace holds the per-hop route records of the attempt that produced
	// this result, when the operation was sampled by Config.Tracer.
	Trace []obs.HopRecord
}

// Lookup retrieves the file with the given fileId. Requests are routed
// toward the fileId and served by the first node along the route holding
// the file — with high probability a node near the client, given
// Pastry's locality properties and the k adjacent replicas. Successful
// lookups leave cached copies of the file on the nodes along the route.
func (n *Node) Lookup(f id.File) (*LookupResult, error) {
	return n.LookupContext(context.Background(), f)
}

// LookupContext is Lookup bounded by a context. When Config.Retry is
// set, the request runs under the resilience layer: per-attempt
// deadlines, backoff retries on transient routing failures AND on
// not-found results (a miss under faults may be spurious — the replicas
// exist but the route was cut short), and hedged attempts through a
// different first hop when the policy enables them.
func (n *Node) LookupContext(ctx context.Context, f id.File) (*LookupResult, error) {
	n.stats.Lookups.Add(1)
	// A recent full lookup already came back not-found: answer locally
	// without routing. Any insert evidence for f invalidates the entry,
	// so a false negative lasts only until the file is next sighted.
	if n.cache.NegativeHit(f) {
		return &LookupResult{Found: false, Negative: true}, nil
	}
	return n.lookupTraced(ctx, f, n.cfg.Tracer.ShouldSample())
}

// LookupTraced is LookupContext under an explicit trace context: the
// route is always hop-recorded (regardless of the sampling tracer), the
// trace context propagates across process boundaries so remote relays
// keep recording under the same trace id, and the negative cache is
// bypassed — a trace that never left the access point would show no
// route. `pastctl trace` reaches this through the ClientLookup RPC.
func (n *Node) LookupTraced(ctx context.Context, f id.File, tc obs.TraceContext) (*LookupResult, error) {
	n.stats.Lookups.Add(1)
	ctx = obs.ContextWithTrace(ctx, tc)
	return n.lookupTraced(ctx, f, true)
}

// lookupTraced runs the routed lookup under the resilience layer (when
// configured), optionally hop-recording the route.
func (n *Node) lookupTraced(ctx context.Context, f id.File, traced bool) (*LookupResult, error) {
	pol, hasPol := n.policy()
	attempt := func(actx context.Context) (any, error) {
		if !hasPol {
			return n.lookupOnce(actx, f, id.Node{}, traced)
		}
		out, err := n.hedged(actx, pol, f.Key(),
			func(rctx context.Context, avoid id.Node) (any, error) {
				return n.lookupOnce(rctx, f, avoid, traced)
			},
			func(res any) bool {
				lr, ok := res.(*LookupResult)
				return ok && lr.Found
			})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	out, err := n.retryLoop(ctx, func(res any) bool {
		lr, ok := res.(*LookupResult)
		return !ok || !lr.Found
	}, attempt)
	if err != nil {
		if traced {
			n.cfg.Tracer.Add(&obs.Trace{Op: "lookup", Key: f.Key(), Err: err.Error()})
		}
		return nil, err
	}
	res, _ := out.(*LookupResult)
	if res == nil {
		res = &LookupResult{Found: false}
	}
	if !res.Found {
		// A completed route answered not-found (transient routing
		// failures surface as errors above, not here): remember it so
		// repeated lookups for the absent file stop consuming routing.
		n.cache.NoteMiss(f)
	}
	if traced {
		routeHops := res.Hops
		if res.Indirect {
			routeHops-- // the pointer chase is not a routing hop
		}
		n.cfg.Tracer.Add(&obs.Trace{
			Op: "lookup", Key: f.Key(),
			Hops: res.Trace, RouteHops: routeHops, OK: res.Found,
		})
	}
	return res, nil
}

// lookupOnce performs a single routed lookup attempt. A non-zero avoid
// is excluded as the first hop (a hedge steering around the primary's
// entry point). With traced set, the attempt records its per-hop route
// into the result.
func (n *Node) lookupOnce(ctx context.Context, f id.File, avoid id.Node, traced bool) (*LookupResult, error) {
	var (
		reply any
		hops  int
		trace []obs.HopRecord
		err   error
	)
	msg := &LookupMsg{File: f}
	switch {
	case traced && avoid.IsZero():
		reply, hops, trace, err = n.overlay.RouteTracedContext(ctx, f.Key(), msg)
	case traced:
		reply, hops, trace, err = n.overlay.RouteAvoidingTraced(ctx, f.Key(), msg, avoid)
	case avoid.IsZero():
		reply, hops, err = n.overlay.RouteContext(ctx, f.Key(), msg)
	default:
		reply, hops, err = n.overlay.RouteAvoiding(ctx, f.Key(), msg, avoid)
	}
	if err != nil {
		return nil, fmt.Errorf("past: lookup %s: %w", f.Short(), err)
	}
	lr, ok := reply.(*LookupReply)
	if !ok {
		return nil, fmt.Errorf("past: lookup %s: unexpected reply %T", f.Short(), reply)
	}
	if !lr.Found {
		return &LookupResult{Found: false, Hops: hops, Trace: trace}, nil
	}
	if n.cfg.VerifyCerts && lr.Cert != nil {
		if err := lr.Cert.Verify(n.cfg.Issuer, lr.Content); err != nil {
			return nil, fmt.Errorf("past: lookup %s: content failed verification: %w", f.Short(), err)
		}
	}
	return &LookupResult{
		Found:     true,
		Size:      lr.Size,
		Content:   lr.Content,
		FromCache: lr.FromCache,
		Hops:      hops + lr.ExtraHops,
		Indirect:  lr.ExtraHops > 0,
		Trace:     trace,
	}, nil
}

// Exists reports whether a lookup for f would succeed, without caching
// side effects on this node. (Intermediate nodes still observe the
// routed request.)
func (n *Node) Exists(f id.File) (bool, error) {
	res, err := n.Lookup(f)
	if err != nil {
		return false, err
	}
	return res.Found, nil
}

// HasReplica reports whether this node itself holds a replica of f
// (primary or diverted-in), for tests and invariant checks.
func (n *Node) HasReplica(f id.File) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.store.Get(f)
	return ok
}

// HasPointer reports whether this node holds a diverted-replica pointer
// for f, and the pointer target.
func (n *Node) HasPointer(f id.File) (id.Node, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.store.GetPointer(f)
	return p.Target, ok
}

// ReplicaKind returns the kind (primary vs diverted-in) of this node's
// replica of f, if it holds one.
func (n *Node) ReplicaKind(f id.File) (store.Kind, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.store.Get(f)
	return e.Kind, ok
}

// CacheContains reports whether f is cached on this node, without
// touching recency state.
func (n *Node) CacheContains(f id.File) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cache.Contains(f)
}
