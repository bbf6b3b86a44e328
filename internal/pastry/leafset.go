package pastry

import (
	"slices"

	"past/internal/id"
)

// Leaf-set maintenance. The leaf set holds the l/2 nodes with numerically
// closest larger nodeIds (the clockwise side, leafHi) and the l/2 nodes
// with numerically closest smaller nodeIds (the counter-clockwise side,
// leafLo), relative to the present node on the circular namespace. In a
// network with fewer than l+1 nodes a node may legitimately appear on
// both sides.
//
// Each side is kept closest-first, which makes it a run of distinct ids
// in ring order: leafHi ascends clockwise from this node, leafLo ascends
// counter-clockwise. Every "closest to key" query below is a merge over
// those two runs (leafWalk); nothing is sorted per query.

// dirDist returns the distance from a to b walking clockwise, or
// counter-clockwise when ccw is set.
func dirDist(a, b id.Node, ccw bool) id.Dist {
	if ccw {
		return b.DistCW(a)
	}
	return a.DistCW(b)
}

// nearer orders (a at distance da) before (b at distance db): smaller
// distance first, ties to the smaller id, as id.Node.Closer does.
func nearer(a id.Node, da id.Dist, b id.Node, db id.Dist) bool {
	if da != db {
		return da.Less(db)
	}
	return a.Less(b)
}

// searchSide returns the index of the first member of side at or beyond
// target, walking from self in the side's direction (len(side) if none).
// side is ordered closest to self first in that direction.
func searchSide(side []id.Node, self, target id.Node, ccw bool) int {
	want := dirDist(self, target, ccw)
	lo, hi := 0, len(side)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if dirDist(self, side[mid], ccw).Less(want) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafInsertLocked adds x to the leaf set if it belongs there, returning
// whether the set changed. Caller holds n.mu.
func (n *Node) leafInsertLocked(x id.Node) bool {
	if x == n.self || x.IsZero() {
		return false
	}
	hi := insertSide(&n.leafHi, n.self, x, false, n.cfg.L/2)
	lo := insertSide(&n.leafLo, n.self, x, true, n.cfg.L/2)
	return hi || lo
}

// insertSide inserts x into a side kept closest to self first, capped at
// max, and reports whether x was kept.
func insertSide(side *[]id.Node, self, x id.Node, ccw bool, max int) bool {
	s := *side
	at := searchSide(s, self, x, ccw)
	if at < len(s) && s[at] == x || at >= max {
		return false
	}
	if len(s) < max {
		s = append(s, id.Node{})
	}
	copy(s[at+1:], s[at:])
	s[at] = x
	*side = s
	return true
}

// leafRemoveLocked removes x from both sides; reports whether anything
// was removed. Caller holds n.mu.
func (n *Node) leafRemoveLocked(x id.Node) bool {
	rm := func(side *[]id.Node) bool {
		s := *side
		for i, m := range s {
			if m == x {
				*side = append(s[:i], s[i+1:]...)
				return true
			}
		}
		return false
	}
	a := rm(&n.leafLo)
	b := rm(&n.leafHi)
	return a || b
}

// sideWalk yields the members of one leaf-set side nearest to key
// first. The side is a run of distinct ids in ring order, so as a
// circular list the members beyond key in the side's own direction lie
// at increasing index (the fwd cursor) and those before it at
// decreasing index (the bwd cursor), both wrapping at the ends; each
// cursor meets its members at increasing directional distance, and the
// smaller of the two head distances is that member's ring distance (the
// other way round to it is blocked by the opposite cursor's head, which
// is farther). One distance is computed per member visited.
type sideWalk struct {
	ids      []id.Node
	key      id.Node
	ccw      bool    // the side ascends counter-clockwise (leafLo)
	fwd, bwd int     // next index of each cursor
	left     int     // members not yet yielded
	df, db   id.Dist // distance from key to ids[fwd] going the side's way, to ids[bwd] going against it
	head     id.Node // nearest member not yet yielded, valid while left > 0
	dist     id.Dist // its ring distance from key
	fromFwd  bool    // head is ids[fwd], not ids[bwd]
}

func newSideWalk(side []id.Node, self, key id.Node, ccw bool) sideWalk {
	w := sideWalk{ids: side, key: key, ccw: ccw, left: len(side)}
	if w.left == 0 {
		return w
	}
	if w.fwd = searchSide(side, self, key, ccw); w.fwd == len(side) {
		w.fwd = 0
	}
	if w.bwd = w.fwd - 1; w.bwd < 0 {
		w.bwd = len(side) - 1
	}
	w.df = dirDist(key, side[w.fwd], ccw)
	w.db = dirDist(key, side[w.bwd], !ccw)
	w.settle()
	return w
}

// settle picks the nearer of the two cursor heads.
func (w *sideWalk) settle() {
	f, b := w.ids[w.fwd], w.ids[w.bwd]
	if w.fromFwd = nearer(f, w.df, b, w.db); w.fromFwd {
		w.head, w.dist = f, w.df
	} else {
		w.head, w.dist = b, w.db
	}
}

// advance consumes head.
func (w *sideWalk) advance() {
	if w.left--; w.left == 0 {
		return
	}
	if w.fromFwd {
		if w.fwd++; w.fwd == len(w.ids) {
			w.fwd = 0
		}
		w.df = dirDist(w.key, w.ids[w.fwd], w.ccw)
	} else {
		if w.bwd--; w.bwd < 0 {
			w.bwd = len(w.ids) - 1
		}
		w.db = dirDist(w.key, w.ids[w.bwd], !w.ccw)
	}
	w.settle()
}

// leafWalk yields the distinct members of the leaf set, and this node
// if asked, in order of ring distance from key (ties to the smaller id,
// the order id.Node.Closer defines): a three-way merge of the two sides
// and self. A member present on both sides heads both at the same step
// and is yielded once. Locating key costs O(log l), each member yielded
// O(1); the walk allocates nothing. The leaf set must not change while
// a walk is in use.
type leafWalk struct {
	hi, lo   sideWalk
	self     id.Node
	selfDist id.Dist
	selfLeft bool
}

// leafWalkLocked starts a walk outward from key. Caller holds n.mu for
// the life of the walk.
func (n *Node) leafWalkLocked(key id.Node, withSelf bool) leafWalk {
	return leafWalk{
		hi:       newSideWalk(n.leafHi, n.self, key, false),
		lo:       newSideWalk(n.leafLo, n.self, key, true),
		self:     n.self,
		selfDist: key.DistRing(n.self),
		selfLeft: withSelf,
	}
}

// next returns the nearest member not yet yielded; ok is false when the
// walk is exhausted.
func (w *leafWalk) next() (m id.Node, ok bool) {
	side := &w.hi
	if side.left == 0 || w.lo.left > 0 && nearer(w.lo.head, w.lo.dist, side.head, side.dist) {
		side = &w.lo
	}
	if w.selfLeft && (side.left == 0 || nearer(w.self, w.selfDist, side.head, side.dist)) {
		w.selfLeft = false
		return w.self, true
	}
	if side.left == 0 {
		return id.Node{}, false
	}
	m = side.head
	if w.hi.left > 0 && w.hi.head == m {
		w.hi.advance()
	}
	if w.lo.left > 0 && w.lo.head == m {
		w.lo.advance()
	}
	return m, true
}

// closestLocked returns up to want distinct leaf-set members (and this
// node, if withSelf) nearest to key, nearest first, in a fresh slice.
// Caller holds n.mu.
func (n *Node) closestLocked(key id.Node, want int, withSelf bool) []id.Node {
	if most := len(n.leafLo) + len(n.leafHi) + 1; want > most {
		want = most
	}
	out := make([]id.Node, 0, want)
	w := n.leafWalkLocked(key, withSelf)
	for len(out) < want {
		m, ok := w.next()
		if !ok {
			break
		}
		out = append(out, m)
	}
	return out
}

// LeafSet returns the members of the leaf set, deduplicated, ordered by
// ring distance from this node (closest first).
func (n *Node) LeafSet() []id.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leafSetLocked()
}

func (n *Node) leafSetLocked() []id.Node {
	return n.closestLocked(n.self, len(n.leafLo)+len(n.leafHi), false)
}

// LeafSides returns copies of the smaller-side and larger-side leaf
// lists, each ordered closest-first. Used by the state printer and by
// PAST's "two most distant members" overflow procedure.
func (n *Node) LeafSides() (lo, hi []id.Node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]id.Node(nil), n.leafLo...), append([]id.Node(nil), n.leafHi...)
}

// inLeafRangeLocked reports whether key lies within the span of the leaf
// set (from the farthest counter-clockwise member, through this node, to
// the farthest clockwise member). When a side is not full the node knows
// the whole ring on that side, so the answer is true; so it is when the
// sides overlap (the clockwise side reaches the farthest counter-clockwise
// member or beyond, as in a ring of at most l nodes): together they span
// the whole ring. Caller holds n.mu.
func (n *Node) inLeafRangeLocked(key id.Node) bool {
	loFull := len(n.leafLo) >= n.cfg.L/2
	hiFull := len(n.leafHi) >= n.cfg.L/2
	if !loFull || !hiFull {
		return true
	}
	lo := n.leafLo[len(n.leafLo)-1]
	hi := n.leafHi[len(n.leafHi)-1]
	span := lo.DistCW(hi)
	if span.Less(lo.DistCW(n.self)) {
		// Clockwise from lo, hi comes before this node: the sides overlap.
		return true
	}
	// key in [lo, hi] going clockwise.
	return !span.Less(lo.DistCW(key))
}

// closestLeafAvoidingLocked returns the member of leaf set + self
// numerically closest to key, skipping excluded members (hops already
// found dead on the current route). Self is never excluded: with every
// closer member dead, this node takes over as the closest live one.
// Caller holds n.mu.
func (n *Node) closestLeafAvoidingLocked(key id.Node, excluded func(id.Node) bool) id.Node {
	w := n.leafWalkLocked(key, true)
	for {
		m, _ := w.next() // self ends the walk before it can run dry
		if m == n.self || !excluded(m) {
			return m
		}
	}
}

// IsAmongKClosest reports whether this node is, to its knowledge, among
// the k live nodes with nodeIds numerically closest to key. The test is
// sound when k <= l/2+1: if the key is inside the leaf-set span and
// fewer than k leaf members are closer to it than this node, then every
// node closer to the key is inside the leaf set, so the local answer
// matches the global one. PAST's insert and reclaim operations are
// consumed by the first such node a route encounters.
func (n *Node) IsAmongKClosest(key id.Node, k int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.inLeafRangeLocked(key) {
		return false
	}
	w := n.leafWalkLocked(key, true)
	for ; k > 0; k-- {
		if m, _ := w.next(); m == n.self {
			return true
		}
	}
	return false
}

// ReplicaSet returns the k nodes (from this node's leaf set plus itself)
// with nodeIds numerically closest to key. This is the set PAST stores
// the k replicas of a file on; the paper requires k <= l/2+1 so that any
// of the k closest nodes can compute the full set from its own leaf set.
func (n *Node) ReplicaSet(key id.Node, k int) []id.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closestLocked(key, k, true)
}

// DivertCandidates appends to buf the members of LeafSet, in its order,
// not in ReplicaSet(key, k), and returns the k+1-th closest node to key
// (zero if none), which keeps a diverted replica's backup pointer.
func (n *Node) DivertCandidates(key id.Node, k int, buf []id.Node) (cands []id.Node, backup id.Node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	replicas := make([]id.Node, 0, 16)
	w := n.leafWalkLocked(key, true)
	for m, ok := w.next(); ok; m, ok = w.next() {
		if len(replicas) == k {
			backup = m
			break
		}
		replicas = append(replicas, m)
	}
	w = n.leafWalkLocked(n.self, false)
	for m, ok := w.next(); ok; m, ok = w.next() {
		if !slices.Contains(replicas, m) {
			buf = append(buf, m)
		}
	}
	return buf, backup
}

// FragmentTargets returns up to want distinct nodes for erasure-coded
// fragment placement: the leaf set plus this node, ordered numerically
// closest to key. Unlike ReplicaSet it is not bounded by k — an EC
// object spreads m+n fragments across as much of the leaf set as the
// coding needs, so a single node loss costs at most one fragment.
func (n *Node) FragmentTargets(key id.Node, want int) []id.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closestLocked(key, want, true)
}
