package pastry

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"past/internal/id"
	"past/internal/netsim"
)

// Node arrival (section 2.1, "Node addition and failure"): an arriving
// node X contacts a nearby node A, asks A to route a special join
// message with destination X. The message reaches Z, the existing node
// numerically closest to X. X then initializes its leaf set from Z's
// leaf set, its neighborhood set from A's, and its routing table from
// the rows collected at the nodes encountered along the route, and
// finally announces itself to every node that needs to know of its
// arrival.

// ErrIDCollision is returned when a joining node's id is already taken;
// the paper requires the newcomer to obtain a new nodeId in this
// exceedingly unlikely event.
var ErrIDCollision = errors.New("pastry: nodeId collision, choose a new nodeId")

// ErrNotJoined is returned to peers that reach a node which is not (or
// not yet) part of the overlay: booting before its join completes, or
// leaving. Callers treat it like a dead peer — purge and route around.
var ErrNotJoined = errors.New("pastry: not joined")

// Join inserts this node into the network via the bootstrap node, which
// should be close to this node under the proximity metric. The node's
// endpoint must already be registered with the network.
func (n *Node) Join(bootstrap id.Node) error {
	if bootstrap == n.self {
		return fmt.Errorf("pastry: node %s cannot bootstrap from itself", n.self.Short())
	}
	// Obtain the bootstrap node's neighborhood set: A is proximally
	// nearby, so A's neighbors are good candidates for ours.
	st, err := netsim.ReplyAs[StateReply](n.net.Invoke(context.Background(), n.self, bootstrap, &StateRequest{}))
	if err != nil {
		return fmt.Errorf("pastry: join via %s: %w", bootstrap.Short(), err)
	}

	// Ask A to route the join message to Z.
	req := &RouteRequest{Key: n.self, Payload: &joinPayload{Joiner: n.self}}
	rr, err := netsim.ReplyAs[RouteReply](n.net.Invoke(context.Background(), n.self, bootstrap, req))
	if err != nil {
		return fmt.Errorf("pastry: join route via %s: %w", bootstrap.Short(), err)
	}
	if rr.Terminal == n.self {
		return ErrIDCollision
	}

	// Build state from everything learned. consider() places each
	// candidate in the leaf set, routing table, and neighborhood set as
	// appropriate.
	n.consider(bootstrap)
	for _, c := range st.Nbrs {
		n.consider(c)
	}
	n.consider(rr.Terminal)
	for _, c := range rr.Leaf {
		n.consider(c)
	}
	for _, c := range rr.Rows {
		n.consider(c)
	}

	n.joined.Store(true)

	n.announce()
	n.notifyLeafChange()
	return nil
}

// announce notifies every node this node knows of about its arrival, so
// they can restore Pastry's invariants.
func (n *Node) announce() {
	n.mu.Lock()
	targets := dedupSorted(n.candidatesLocked())
	n.mu.Unlock()
	for _, t := range targets {
		// Best effort: a dead target will be noticed by keep-alives.
		if _, err := n.net.Invoke(context.Background(), n.self, t, &Announce{NewNode: n.self}); err != nil {
			n.forget(t)
		}
	}
}

// dedupSorted returns the distinct ids in ascending order, so that
// best-effort broadcasts contact nodes in a reproducible order.
func dedupSorted(ids []id.Node) []id.Node {
	out := append([]id.Node(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	w := 0
	for _, c := range out {
		if w == 0 || out[w-1] != c {
			out[w] = c
			w++
		}
	}
	return out[:w]
}

// Announce-Depart: a gracefully leaving node tells everyone it knows,
// so routes avoid it immediately rather than after keep-alive timeouts.
// The caller is expected to take the node off the network right after.
func (n *Node) Depart() {
	n.mu.Lock()
	targets := dedupSorted(n.candidatesLocked())
	n.joined.Store(false)
	n.mu.Unlock()
	for _, t := range targets {
		_, _ = n.net.Invoke(context.Background(), n.self, t, &Depart{Node: n.self})
	}
}

// Rejoin re-inserts a recovering node using its last known leaf set: it
// contacts those nodes, obtains their current leaf sets, rebuilds its
// own, and announces its presence (section 2.1). If none of the known
// nodes are reachable, Rejoin fails and a full Join via a live bootstrap
// is required.
func (n *Node) Rejoin(lastLeaf []id.Node) error {
	reached := 0
	for _, m := range lastLeaf {
		st, err := netsim.ReplyAs[StateReply](n.net.Invoke(context.Background(), n.self, m, &StateRequest{}))
		if err != nil {
			continue
		}
		reached++
		n.consider(st.ID)
		for _, c := range st.Leaf {
			n.consider(c)
		}
		for _, c := range st.Nbrs {
			n.consider(c)
		}
	}
	if reached == 0 {
		return fmt.Errorf("pastry: rejoin of %s: no node of the last leaf set is reachable", n.self.Short())
	}
	n.joined.Store(true)
	n.announce()
	n.notifyLeafChange()
	return nil
}
