package pastry

import (
	"context"

	"past/internal/id"
	"past/internal/netsim"
)

// Failure handling (section 2.1): neighboring nodes in the nodeId space
// exchange periodic keep-alive messages; a node unresponsive for a
// period T is presumed failed, all members of its leaf set are notified
// and update their leaf sets to restore the invariant. In the emulation
// the keep-alive period is modeled by explicit maintenance rounds: the
// experiment driver calls CheckLeafSet on every node after failure
// events, which is exactly what the timer would have done.

// repairTableEntry implements the routing-table repair of section 2.1:
// when the node that occupied a routing-table slot fails, peers in the
// same table row are asked for their corresponding row — any entry of
// theirs shares the same digit prefix and is a candidate replacement.
// Leaf-set members serve as a fallback source.
func (n *Node) repairTableEntry(dead id.Node) {
	row := n.self.SharedPrefix(dead, n.cfg.B)
	if row >= len(n.rows) {
		return
	}
	col := dead.Digit(row, n.cfg.B)

	n.mu.Lock()
	var peers []id.Node
	for _, e := range n.rows[row] {
		if !e.IsZero() && e != dead {
			peers = append(peers, e)
		}
	}
	peers = append(peers, n.leafLo...)
	peers = append(peers, n.leafHi...)
	n.mu.Unlock()

	asked := 0
	changed := false
	for _, p := range peers {
		if asked >= 3 {
			break
		}
		rr, err := netsim.ReplyAs[RowReply](n.net.Invoke(context.Background(), n.self, p, &RowRequest{Row: row}))
		if err != nil {
			continue
		}
		asked++
		for _, e := range rr.Entries {
			if e == dead || e == n.self || !n.net.Alive(e) {
				continue
			}
			if n.consider(e) {
				changed = true
			}
		}
		n.mu.Lock()
		filled := !n.rows[row][col].IsZero()
		n.mu.Unlock()
		if filled {
			break
		}
	}
	if changed {
		n.notifyLeafChange()
	}
}

// CheckLeafSet probes every leaf-set member, removes the dead ones, and
// repairs the leaf set by pulling state from the farthest live members
// on each side (their leaf sets overlap ours by exactly half, so they
// know the replacement candidates). It returns the ids of the members
// found dead. The leaf-set callback fires at most once.
func (n *Node) CheckLeafSet() (dead []id.Node) {
	changed := false
	for _, m := range n.LeafSet() {
		if _, err := n.net.Invoke(context.Background(), n.self, m, &Ping{}); err != nil {
			dead = append(dead, m)
			if n.forget(m) {
				changed = true
			}
		}
	}
	// Exchange state even when every member answered: the keep-alives of
	// the real protocol carry leaf-set contents, which is what lets a
	// node re-discover a live neighbor it wrongly dropped (e.g. after the
	// neighbor's recovery announcement was lost in transit). Probing
	// alone can never repair that hole.
	if n.repairLeafSet() {
		changed = true
	}
	if changed {
		n.leafRepairs.Add(1)
		n.notifyLeafChange()
	}
	return dead
}

// repairLeafSet merges the leaf sets of the farthest live member on each
// side into our own and announces our presence to every current member
// (so the repair is symmetric). Reports whether the leaf set changed.
func (n *Node) repairLeafSet() bool {
	changed := false
	lo, hi := n.LeafSides()
	for _, side := range [][]id.Node{lo, hi} {
		for i := len(side) - 1; i >= 0; i-- { // farthest live member first
			st, err := netsim.ReplyAs[StateReply](n.net.Invoke(context.Background(), n.self, side[i], &StateRequest{}))
			if err != nil {
				if n.forget(side[i]) {
					changed = true
				}
				continue
			}
			for _, c := range st.Leaf {
				if alive := n.net.Alive(c); alive {
					if n.consider(c) {
						changed = true
					}
				}
			}
			break
		}
	}
	// Symmetric repair: make sure every member has us.
	for _, m := range n.LeafSet() {
		if _, err := n.net.Invoke(context.Background(), n.self, m, &Announce{NewNode: n.self}); err != nil {
			if n.forget(m) {
				changed = true
			}
		}
	}
	return changed
}
