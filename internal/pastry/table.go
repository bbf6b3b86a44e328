package pastry

import (
	"past/internal/id"
)

// Routing-table maintenance. Row r of the table holds, for each of the
// 2^b-1 digit values other than the present node's own digit at position
// r, a node whose nodeId shares the first r digits with the present node
// and has that digit value at position r. Among the potentially many
// qualifying nodes, the entry is kept pointing at the proximally closest
// candidate seen so far, which is what gives Pastry its locality
// properties.

// tableConsiderLocked offers x as a candidate for the routing table.
// Returns whether the table changed. Caller holds n.mu.
func (n *Node) tableConsiderLocked(x id.Node) bool {
	if x == n.self || x.IsZero() {
		return false
	}
	r := n.self.SharedPrefix(x, n.cfg.B)
	if r >= len(n.rows) {
		return false // x == self, already excluded
	}
	col := x.Digit(r, n.cfg.B)
	cur := n.rows[r][col]
	if cur == x {
		return false
	}
	if cur.IsZero() {
		n.rows[r][col] = x
		return true
	}
	// Keep the proximally closer of the two candidates; if either
	// proximity is unknown, keep the incumbent.
	dNew, ok1 := n.net.Proximity(n.self, x)
	dCur, ok2 := n.net.Proximity(n.self, cur)
	if ok1 && ok2 && dNew < dCur {
		n.rows[r][col] = x
		return true
	}
	return false
}

// tableRemoveLocked clears any table entry referring to x. Caller holds
// n.mu.
func (n *Node) tableRemoveLocked(x id.Node) {
	if x.IsZero() {
		return
	}
	r := n.self.SharedPrefix(x, n.cfg.B)
	if r >= len(n.rows) {
		return
	}
	col := x.Digit(r, n.cfg.B)
	if n.rows[r][col] == x {
		n.rows[r][col] = id.Node{}
	}
}

// tableLookupLocked returns the entry for the key's digit at the row
// where the shared prefix with self ends, or a zero id if empty. Caller
// holds n.mu.
func (n *Node) tableLookupLocked(key id.Node) id.Node {
	r := n.self.SharedPrefix(key, n.cfg.B)
	if r >= len(n.rows) {
		return id.Node{}
	}
	return n.rows[r][key.Digit(r, n.cfg.B)]
}

// TableRow returns a copy of routing-table row r.
func (n *Node) TableRow(r int) []id.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]id.Node(nil), n.rows[r]...)
}

func (n *Node) tableEntriesLocked() []id.Node {
	var out []id.Node
	for _, row := range n.rows {
		for _, e := range row {
			if !e.IsZero() {
				out = append(out, e)
			}
		}
	}
	return out
}

// TableSize returns the number of populated routing-table entries.
func (n *Node) TableSize() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for _, row := range n.rows {
		for _, e := range row {
			if !e.IsZero() {
				c++
			}
		}
	}
	return c
}

// nbrConsiderLocked offers x as a neighborhood-set candidate (the M
// proximally closest nodes known). Caller holds n.mu.
func (n *Node) nbrConsiderLocked(x id.Node) bool {
	if x == n.self || x.IsZero() {
		return false
	}
	for _, m := range n.nbrs {
		if m == x {
			return false
		}
	}
	d, ok := n.net.Proximity(n.self, x)
	if !ok {
		return false
	}
	if len(n.nbrs) < n.cfg.L {
		n.nbrs = append(n.nbrs, x)
		n.sortNbrsLocked()
		return true
	}
	// Replace the farthest member if x is closer.
	far := n.nbrs[len(n.nbrs)-1]
	dFar, ok := n.net.Proximity(n.self, far)
	if ok && d < dFar {
		n.nbrs[len(n.nbrs)-1] = x
		n.sortNbrsLocked()
		return true
	}
	return false
}

func (n *Node) sortNbrsLocked() {
	self := n.self
	nbrs := n.nbrs
	// Insertion sort by proximity; M is small.
	for i := 1; i < len(nbrs); i++ {
		for j := i; j > 0; j-- {
			dj, _ := n.net.Proximity(self, nbrs[j])
			dp, _ := n.net.Proximity(self, nbrs[j-1])
			if dj < dp {
				nbrs[j], nbrs[j-1] = nbrs[j-1], nbrs[j]
			} else {
				break
			}
		}
	}
}

// nbrRemoveLocked removes x from the neighborhood set. Caller holds n.mu.
func (n *Node) nbrRemoveLocked(x id.Node) {
	for i, m := range n.nbrs {
		if m == x {
			n.nbrs = append(n.nbrs[:i], n.nbrs[i+1:]...)
			return
		}
	}
}

// Neighborhood returns a copy of the neighborhood set, proximally
// closest first.
func (n *Node) Neighborhood() []id.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]id.Node(nil), n.nbrs...)
}

// consider offers x to every state component; it reports whether the
// leaf set changed but does not fire the leaf-set callback, so callers
// can batch notifications.
func (n *Node) consider(x id.Node) (leafChanged bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	leafChanged = n.leafInsertLocked(x)
	n.tableConsiderLocked(x)
	n.nbrConsiderLocked(x)
	return leafChanged
}

// forget removes x from every state component (used when x is found
// dead); like consider it reports leaf-set changes without firing the
// callback.
func (n *Node) forget(x id.Node) (leafChanged bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	leafChanged = n.leafRemoveLocked(x)
	n.tableRemoveLocked(x)
	n.nbrRemoveLocked(x)
	return leafChanged
}
