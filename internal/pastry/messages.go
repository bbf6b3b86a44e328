package pastry

import (
	"context"
	"fmt"

	"past/internal/id"
	"past/internal/netsim"
	"past/internal/obs"
)

// Wire-visible message types. These are the only values Pastry nodes
// exchange; the application payload inside RouteRequest is opaque to
// this package.

// RouteRequest carries a routed message. It travels hop by hop: every
// node either consumes it (application Forward/Deliver) or forwards it to
// the next hop, incrementing Hops.
type RouteRequest struct {
	Key     id.Node
	Payload any
	Hops    int

	// Traced asks every hop to append its routing decision to Trace —
	// one record per decision, including failed attempts that forced a
	// reroute. The consuming node copies the accumulated records into
	// the reply.
	Traced bool
	Trace  []obs.HopRecord

	// TC is the end-to-end trace context the route runs under (zero:
	// none). It rides the request across process boundaries so every
	// relay keeps recording into Trace under the same trace id, and its
	// Budget caps how many hop records accumulate — the budget bounds
	// recording only, never the route itself.
	TC obs.TraceContext

	// Rows collects routing-table candidates for a joining node: every
	// hop of a join route (a *joinPayload) contributes its rows.
	Rows []id.Node
}

// RouteReply is the response to a RouteRequest, produced by the node
// that consumed the message and passed back through every hop.
type RouteReply struct {
	Payload any
	Hops    int
	Trace   []obs.HopRecord

	// Load is a retired admission-load hint: no code outside the codec
	// sets or reads it, so senders always write 0. The codec still
	// carries the byte so the frame layout holds until the next wire
	// version drops it.
	Load uint8

	// Join protocol results: the terminal node's identity and leaf set,
	// and the routing candidates collected along the path.
	Terminal id.Node
	Leaf     []id.Node
	Rows     []id.Node
}

// joinPayload marks a RouteRequest as a node-join message; it is
// consumed by the Pastry layer itself at the terminal node.
type joinPayload struct {
	Joiner id.Node
}

// Ping is the keep-alive probe neighboring nodes exchange.
type Ping struct{}

// Pong answers a Ping.
type Pong struct{}

// StateRequest asks a node for its leaf set and neighborhood set; used
// during join, recovery, and leaf-set repair.
type StateRequest struct{}

// StateReply carries a node's visible routing state.
type StateReply struct {
	ID   id.Node
	Leaf []id.Node
	Nbrs []id.Node
}

// Announce tells a node that NewNode has arrived (or recovered) so it
// can update its leaf set, routing table, and neighborhood set.
type Announce struct {
	NewNode id.Node
}

// Depart tells a node that Node is leaving the network gracefully, so
// it can be dropped from all state immediately instead of waiting for
// keep-alive timeouts.
type Depart struct {
	Node id.Node
}

// RowRequest asks a node for routing-table row Row; used to repair a
// table entry that referred to a failed node (the "repaired lazily"
// procedure of section 2.1: a peer that shares the dead entry's prefix
// likely knows a live replacement).
type RowRequest struct {
	Row int
}

// RowReply carries the non-empty entries of the requested row.
type RowReply struct {
	Entries []id.Node
}

// Ack is the generic empty acknowledgment.
type Ack struct{}

// Deliver implements netsim.Endpoint for a bare Pastry node; nodes
// wrapped by an application (PAST) route through the wrapper instead,
// which delegates unknown messages here.
func (n *Node) Deliver(from id.Node, msg any) (any, error) {
	// A node that has not (re)joined is not on the overlay, even if its
	// endpoint is reachable: a crashed node's replacement process binds
	// the same address before rejoining, and answering pings or routes
	// in that window would keep the previous incarnation's entries
	// alive in peers' state — the join route would then terminate at
	// the joiner itself and misread its own stale entry as an id
	// collision. Refusing makes peers purge the entry (keep-alive
	// failure) or route around it (next-hop failure), exactly as if the
	// process were still down.
	if !n.Joined() {
		return nil, ErrNotJoined
	}
	switch m := msg.(type) {
	case *RouteRequest:
		// A relayed message runs under a fresh context: the originator's
		// deadline bounds its own Invoke of the first hop, and each relay
		// bounds its onward RPCs with cfg.HopTimeout.
		return n.routeStep(context.Background(), m)
	case *Ping:
		return &Pong{}, nil
	case *StateRequest:
		return n.stateReply(), nil
	case *Announce:
		if n.consider(m.NewNode) {
			n.notifyLeafChange()
		}
		return &Ack{}, nil
	case *Depart:
		// Forget immediately so routes avoid the departing node; the
		// vacated leaf/table slots refill on the next keep-alive round,
		// once the node is actually gone (repairing now could re-learn
		// it from peers that have not yet processed their Depart).
		if n.forget(m.Node) {
			n.notifyLeafChange()
		}
		return &Ack{}, nil
	case *RowRequest:
		if m.Row < 0 || m.Row >= len(n.rows) {
			return &RowReply{}, nil
		}
		n.mu.Lock()
		var entries []id.Node
		for _, e := range n.rows[m.Row] {
			if !e.IsZero() {
				entries = append(entries, e)
			}
		}
		n.mu.Unlock()
		return &RowReply{Entries: entries}, nil
	default:
		return nil, fmt.Errorf("pastry: node %s: unknown message %T", n.self.Short(), msg)
	}
}

var _ netsim.Endpoint = (*Node)(nil)

func (n *Node) stateReply() *StateReply {
	n.mu.Lock()
	defer n.mu.Unlock()
	return &StateReply{
		ID:   n.self,
		Leaf: n.leafSetLocked(),
		Nbrs: append([]id.Node(nil), n.nbrs...),
	}
}
