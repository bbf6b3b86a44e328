package pastry

import (
	"context"
	"errors"
	"fmt"
	"time"

	"past/internal/id"
	"past/internal/netsim"
	"past/internal/obs"
)

// ErrHopLimit reports a route that exceeded the configured hop bound,
// which indicates corrupted routing state rather than a transient fault.
var ErrHopLimit = errors.New("pastry: hop limit exceeded")

// Route routes payload toward key and returns the consuming node's reply
// and the number of overlay hops taken (0 if this node consumed the
// message itself). It carries no deadline; use RouteContext to bound the
// request.
func (n *Node) Route(key id.Node, payload any) (reply any, hops int, err error) {
	reply, hops, _, err = n.RouteContext(context.Background(), key, payload)
	return reply, hops, err
}

// RouteContext is Route bounded by a context: the deadline covers the
// whole route (every hop and reroute), and cancellation aborts it
// between hops. Expiry surfaces as netsim.ErrTimeout.
//
// When ctx carries a sampled obs.TraceContext, every node on the route
// appends an obs.HopRecord describing which routing rule chose the hop,
// the prefix depth, proximity, and RPC latency; failed hop attempts stay
// in the record with Failed set, and on error the records accumulated so
// far are still returned. An active context (non-zero ID) also rides the
// request, so relays in other processes record under the same trace id.
// Recording is out-of-band: it draws no randomness and alters no routing
// decision.
func (n *Node) RouteContext(ctx context.Context, key id.Node, payload any) (reply any, hops int, trace []obs.HopRecord, err error) {
	req := &RouteRequest{Key: key, Payload: payload}
	if tc, ok := obs.TraceFromContext(ctx); ok && tc.Sampled {
		req.Traced = true
		if tc.Active() {
			req.TC = tc
		}
	}
	rr, err := n.routeStep(ctx, req)
	if err != nil {
		return nil, 0, req.Trace, err
	}
	return rr.Payload, rr.Hops, rr.Trace, nil
}

// FirstHop returns the node this node would forward a message for key to
// right now (the zero id if it would consume the message itself).
func (n *Node) FirstHop(key id.Node) id.Node { return n.nextHop(key) }

// invokeHop sends one routed message to the next hop, applying the
// per-hop timeout (if configured) on top of the request context. An
// active trace context is restamped onto the context so the transport
// carries it on the wire envelope too — relays run routed messages
// under a fresh context, and the envelope is how the receiving process
// knows the RPC belongs to a trace before decoding the payload.
func (n *Node) invokeHop(ctx context.Context, next id.Node, req *RouteRequest) (any, error) {
	if req.TC.Active() {
		ctx = obs.ContextWithTrace(ctx, req.TC)
	}
	if n.cfg.HopTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, n.cfg.HopTimeout)
		defer cancel()
	}
	return n.net.Invoke(ctx, n.self, next, req)
}

// noteHopRejection dispatches a retryable hop error to the right
// bookkeeping: an overloaded hop is alive — it is routed around for
// this request but kept in the routing state (evicting it would tear
// down leaf sets every time a node saturates); anything else is
// presumed dead.
func (n *Node) noteHopRejection(next id.Node, err error) {
	if errors.Is(err, netsim.ErrOverloaded) {
		n.overloadHops.Add(1)
		return
	}
	n.noteHopFailure(next)
}

// noteHopFailure records a next hop found dead mid-route: drop it from
// all routing state, repair the vacated table slot from peers (the
// presumed-failed analogue of a keep-alive timeout), and account the
// reroute.
func (n *Node) noteHopFailure(dead id.Node) {
	if n.forget(dead) {
		n.notifyLeafChange()
	}
	n.repairTableEntry(dead)
	n.reroutes.Add(1)
}

// routeStep processes a routed message at this node: consume it here
// (application Forward, application Deliver, or join handling) or
// forward it to the next hop. It is called both for messages originated
// by this node and for messages received from the network. A next hop
// that fails or times out is excluded and the step reroutes through the
// best remaining alternate (routing-table entries, then leaf-set
// neighbors, per section 2.1's repair semantics); only when every
// alternate is exhausted does the node consume the message itself as
// the numerically closest live node it knows of.
func (n *Node) routeStep(ctx context.Context, req *RouteRequest) (*RouteReply, error) {
	if err := netsim.CtxErr(ctx); err != nil {
		return nil, err
	}
	if req.Hops > n.cfg.HopLimit {
		return nil, fmt.Errorf("%w: key %s at node %s after %d hops",
			ErrHopLimit, req.Key.Short(), n.self.Short(), req.Hops)
	}
	var tried map[id.Node]bool
	join, isJoin := req.Payload.(*joinPayload)
	if isJoin {
		n.collectJoinRows(req, join.Joiner)
	} else {
		handled, reply, err := n.app.Forward(req.Key, req.Payload)
		if err != nil {
			return nil, err
		}
		if handled {
			if req.Traced && req.TC.HasRoom(len(req.Trace)) {
				req.Trace = append(req.Trace, n.localRecord(req.Key))
			}
			return &RouteReply{Payload: reply, Hops: req.Hops, Trace: req.Trace}, nil
		}
	}

	for {
		next, choice := n.nextHopChoose(req.Key, tried)
		if next.IsZero() {
			// This node is the numerically closest live node it knows of:
			// consume the message.
			if req.Traced && req.TC.HasRoom(len(req.Trace)) {
				req.Trace = append(req.Trace, n.localRecord(req.Key))
			}
			if isJoin {
				st := n.stateReply()
				return &RouteReply{
					Hops: req.Hops, Trace: req.Trace,
					Terminal: n.self, Leaf: st.Leaf, Rows: req.Rows,
				}, nil
			}
			reply, err := n.app.Deliver(req.Key, req.Payload)
			if err != nil {
				return nil, err
			}
			return &RouteReply{Payload: reply, Hops: req.Hops, Trace: req.Trace}, nil
		}
		if len(tried) > 0 {
			// The best candidate was excluded by an earlier failure on
			// this route: this hop is the alternate.
			choice = obs.ChoiceReroute
		}

		req.Hops++
		var mark int
		var hopStart time.Time
		// The trace budget caps recording, not routing: a route past the
		// budget keeps going, it just stops accumulating hop records.
		recorded := req.Traced && req.TC.HasRoom(len(req.Trace))
		if recorded {
			mark = len(req.Trace)
			req.Trace = append(req.Trace, n.hopRecord(req.Key, next, choice))
			hopStart = time.Now()
		}
		res, err := n.invokeHop(ctx, next, req)
		if err != nil && netsim.Retryable(err) && !n.cfg.FailFast {
			if ctxErr := netsim.CtxErr(ctx); ctxErr != nil {
				// The request deadline, not the hop, expired: stop.
				return nil, ctxErr
			}
			// Presumed failed: exclude the hop for this route, evict it
			// from routing state, repair the slot, and retry with the
			// next best candidate. The failed attempt stays in the trace;
			// anything recorded beyond it belonged to the dead subtree.
			if recorded {
				req.Trace = req.Trace[:mark+1]
				req.Trace[mark].Failed = true
				req.Trace[mark].RPCNanos = time.Since(hopStart).Nanoseconds()
			}
			req.Hops--
			if tried == nil {
				tried = make(map[id.Node]bool)
			}
			tried[next] = true
			n.noteHopRejection(next, err)
			continue
		}
		if err != nil {
			return nil, err
		}
		rr, err := netsim.ReplyAs[RouteReply](res, nil)
		if err != nil {
			return nil, fmt.Errorf("pastry: route reply from %s: %w", next.Short(), err)
		}
		if recorded && mark < len(rr.Trace) {
			// Fill in this hop's RPC latency on the reply's copy of the
			// trace as it propagates back toward the origin.
			rr.Trace[mark].RPCNanos = time.Since(hopStart).Nanoseconds()
		}
		if !isJoin {
			n.app.Backward(req.Key, req.Payload, rr.Payload)
		}
		return rr, nil
	}
}

// hopRecord builds the trace record for forwarding a message for key to
// next under the given routing rule.
func (n *Node) hopRecord(key, next id.Node, choice string) obs.HopRecord {
	dist := -1.0
	if d, ok := n.net.Proximity(n.self, next); ok {
		dist = d
	}
	return obs.HopRecord{
		From:     n.self,
		To:       next,
		Choice:   choice,
		Prefix:   n.self.SharedPrefix(key, n.cfg.B),
		Distance: dist,
	}
}

// localRecord builds the terminal trace record for a message this node
// consumed itself.
func (n *Node) localRecord(key id.Node) obs.HopRecord {
	return obs.HopRecord{
		From:   n.self,
		To:     n.self,
		Choice: obs.ChoiceLocal,
		Prefix: n.self.SharedPrefix(key, n.cfg.B),
	}
}

// collectJoinRows contributes this node's routing-table rows (up to and
// including the row indexed by the shared-prefix length with the joiner)
// plus itself to the join message's candidate set.
func (n *Node) collectJoinRows(req *RouteRequest, joiner id.Node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.self.SharedPrefix(joiner, n.cfg.B)
	if p >= len(n.rows) {
		p = len(n.rows) - 1
	}
	for r := 0; r <= p; r++ {
		for _, e := range n.rows[r] {
			if !e.IsZero() {
				req.Rows = append(req.Rows, e)
			}
		}
	}
	req.Rows = append(req.Rows, n.self)
}

// nextHop selects the node to forward a message for key to, or the zero
// id if this node should consume it.
func (n *Node) nextHop(key id.Node) id.Node { return n.nextHopAvoiding(key, nil) }

// nextHopAvoiding is the routing procedure of section 2.1 with an
// exclusion set: leaf set if the key is in range, otherwise the routing
// table entry with a longer prefix match, otherwise any known node that
// is closer to the key without shortening the prefix match (the "rare
// case"). Nodes in avoid — hops already found dead on this route — are
// skipped, which is what turns the procedure into per-hop reroute:
// excluding the best candidate makes the same rules yield the best
// alternate. With RandomizeP > 0 the choice is occasionally made among
// all valid candidates to defeat repeat-interception.
func (n *Node) nextHopAvoiding(key id.Node, avoid map[id.Node]bool) id.Node {
	next, _ := n.nextHopChoose(key, avoid)
	return next
}

// nextHopChoose is nextHopAvoiding reporting which routing rule produced
// the hop (an obs.Choice* label): leaf-set routing, the routing table,
// the randomized candidate pick, or the rare-case fallback. A zero next
// hop pairs with ChoiceLocal: this node consumes the message.
func (n *Node) nextHopChoose(key id.Node, avoid map[id.Node]bool) (id.Node, string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	excluded := func(c id.Node) bool { return avoid != nil && avoid[c] }

	if key == n.self {
		return id.Node{}, obs.ChoiceLocal
	}
	if n.inLeafRangeLocked(key) {
		c := n.closestLeafAvoidingLocked(key, excluded)
		if c == n.self {
			return id.Node{}, obs.ChoiceLocal
		}
		return c, obs.ChoiceLeaf
	}

	best := n.tableLookupLocked(key)
	if excluded(best) {
		best = id.Node{}
	}
	if n.cfg.RandomizeP > 0 && n.rng.Float64() < n.cfg.RandomizeP {
		if c := n.randomValidCandidateLocked(key, excluded); !c.IsZero() {
			return c, obs.ChoiceRandom
		}
	}
	if !best.IsZero() {
		return best, obs.ChoiceTable
	}

	// Rare case (and the reroute fallback): no usable table entry. Use
	// any known node that shares at least as long a prefix with the key
	// and is numerically closer to it.
	myPrefix := n.self.SharedPrefix(key, n.cfg.B)
	myDist := n.self.RingDist(key)
	var fallback id.Node
	bestPrefix := myPrefix
	bestDist := myDist
	for _, c := range n.candidatesLocked() {
		if excluded(c) {
			continue
		}
		p := c.SharedPrefix(key, n.cfg.B)
		if p < myPrefix {
			continue
		}
		d := c.RingDist(key)
		if d.Cmp(myDist) >= 0 {
			continue
		}
		// Prefer longer prefix, then smaller distance.
		if fallback.IsZero() || p > bestPrefix || (p == bestPrefix && d.Less(bestDist)) {
			fallback, bestPrefix, bestDist = c, p, d
		}
	}
	if fallback.IsZero() {
		return fallback, obs.ChoiceLocal
	}
	return fallback, obs.ChoiceRare
}

// candidatesLocked returns the union of leaf set, routing table, and
// neighborhood set. Caller holds n.mu.
func (n *Node) candidatesLocked() []id.Node {
	out := n.tableEntriesLocked()
	out = append(out, n.leafLo...)
	out = append(out, n.leafHi...)
	out = append(out, n.nbrs...)
	return out
}

// randomValidCandidateLocked picks a uniformly random non-excluded
// candidate that preserves routing progress: at least as long a prefix
// match with the key, strictly smaller numerical distance. Caller holds
// n.mu.
func (n *Node) randomValidCandidateLocked(key id.Node, excluded func(id.Node) bool) id.Node {
	myPrefix := n.self.SharedPrefix(key, n.cfg.B)
	myDist := n.self.RingDist(key)
	var valid []id.Node
	seen := make(map[id.Node]bool)
	for _, c := range n.candidatesLocked() {
		if seen[c] || excluded(c) {
			continue
		}
		seen[c] = true
		if c.SharedPrefix(key, n.cfg.B) >= myPrefix && c.RingDist(key).Less(myDist) {
			valid = append(valid, c)
		}
	}
	if len(valid) == 0 {
		return id.Node{}
	}
	return valid[n.rng.Intn(len(valid))]
}
