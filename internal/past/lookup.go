package past

import (
	"context"
	"fmt"

	"past/internal/chaos"
	"past/internal/ec"
	"past/internal/id"
	"past/internal/netsim"
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
	// Trace holds the per-hop route records of the attempt that produced
	// this result, when the operation was traced: sampled by
	// Config.Tracer, or run under a sampled obs.TraceContext.
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

// LookupContext is Lookup bounded by a context.
//
// A ctx carrying an active obs.TraceContext (how `pastctl trace` arrives
// through the ClientLookup RPC) hop-records the route regardless of the
// sampling tracer and propagates the trace id to relays in other
// processes.
func (n *Node) LookupContext(ctx context.Context, f id.File) (*LookupResult, error) {
	n.stats.Lookups.Add(1)
	ctx, traced := n.traceIntent(ctx)
	res, err := n.routeLookup(ctx, f)
	if err != nil {
		if traced {
			n.cfg.Tracer.Add(&obs.Trace{Op: "lookup", Key: f.Key(), Err: err.Error()})
		}
		return nil, err
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

// traceIntent decides whether one client operation is hop-recorded and
// returns the context its routes run under. A sampled trace context
// already on ctx wins; otherwise a Config.Tracer sample attaches an
// inert one ({Sampled: true}, id 0): it makes RouteContext record hops
// without naming a cross-process trace.
func (n *Node) traceIntent(ctx context.Context) (context.Context, bool) {
	if tc, ok := obs.TraceFromContext(ctx); ok && tc.Sampled {
		return ctx, true
	}
	if !n.cfg.Tracer.ShouldSample() {
		return ctx, false
	}
	return obs.ContextWithTrace(ctx, obs.TraceContext{Sampled: true}), true
}

// routeLookup routes the lookup and turns its reply into a result.
func (n *Node) routeLookup(ctx context.Context, f id.File) (*LookupResult, error) {
	reply, hops, trace, err := n.overlay.RouteContext(ctx, f.Key(), &LookupMsg{File: f})
	if err != nil {
		return nil, fmt.Errorf("past: lookup %s: %w", f.Short(), err)
	}
	lr, err := netsim.ReplyAs[LookupReply](reply, nil)
	if err != nil {
		return nil, fmt.Errorf("past: lookup %s: %w", f.Short(), err)
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

// HasReplica reports whether this node itself holds a replica of f
// (primary or diverted-in), for tests and invariant checks.
func (n *Node) HasReplica(f id.File) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.store.Stat(f)
	return ok
}

// Holds reports what this node holds locally for each file: the body
// of its ClientReplicaReport reply and its row of the emulator's census.
// Whether a replica is a fragment map is read off the map's magic.
func (n *Node) Holds(files []id.File) []chaos.Hold {
	out := make([]chaos.Hold, len(files))
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, f := range files {
		h := &out[i]
		if e, ok := n.store.Get(f); ok {
			h.Has, h.Primary = true, e.Kind == store.Primary
			if ec.IsMap(e.Content) {
				if fmap, err := ec.DecodeMap(e.Content); err == nil {
					h.ECData, h.ECTotal = fmap.Data, fmap.Params().Total()
				}
			}
		}
		if p, ok := n.store.GetPointer(f); ok {
			h.HasPtr, h.Ptr = true, p.Target
		}
		h.Frags = n.frags.Indices(f)
	}
	return out
}
