package pastry

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"past/internal/id"
	"past/internal/netsim"
)

// The sort-per-query leaf-set code that leafWalk replaced, kept as the
// oracle: collect, deduplicate, sort.Slice by id.Node.Closer. The merge
// must return the same elements in the same order for every state the
// two sides can be in.

func refInsertSide(side *[]id.Node, x id.Node, max int, less func(a, b id.Node) bool) bool {
	s := *side
	for _, m := range s {
		if m == x {
			return false
		}
	}
	s = append(s, x)
	sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
	if len(s) > max {
		trimmed := s[max:]
		s = s[:max]
		*side = s
		for _, t := range trimmed {
			if t == x {
				return false
			}
		}
		return true
	}
	*side = s
	return true
}

// refLeafInsert is the old leafInsertLocked on explicit sides.
func refLeafInsert(self id.Node, lo, hi *[]id.Node, x id.Node, half int) bool {
	if x == self || x.IsZero() {
		return false
	}
	changed := false
	if refInsertSide(hi, x, half, func(a, b id.Node) bool {
		da, db := cwDist(self, a), cwDist(self, b)
		if c := da.Cmp(db); c != 0 {
			return c < 0
		}
		return a.Less(b)
	}) {
		changed = true
	}
	if refInsertSide(lo, x, half, func(a, b id.Node) bool {
		da, db := cwDist(a, self), cwDist(b, self)
		if c := da.Cmp(db); c != 0 {
			return c < 0
		}
		return a.Less(b)
	}) {
		changed = true
	}
	return changed
}

func refLeafSet(n *Node) []id.Node {
	seen := make(map[id.Node]bool, len(n.leafLo)+len(n.leafHi))
	out := make([]id.Node, 0, len(n.leafLo)+len(n.leafHi))
	for _, s := range [][]id.Node{n.leafLo, n.leafHi} {
		for _, m := range s {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return n.self.Closer(out[i], out[j]) })
	return out
}

// refClosest is the shared body of the old ReplicaSet and
// FragmentTargets.
func refClosest(n *Node, key id.Node, want int) []id.Node {
	cands := append(refLeafSet(n), n.self)
	sort.Slice(cands, func(i, j int) bool { return key.Closer(cands[i], cands[j]) })
	if len(cands) > want {
		cands = cands[:want]
	}
	return cands
}

func refIsAmongKClosest(n *Node, key id.Node, k int) bool {
	if !n.inLeafRangeLocked(key) {
		return false
	}
	closer := 0
	seen := make(map[id.Node]bool, len(n.leafLo)+len(n.leafHi))
	for _, s := range [][]id.Node{n.leafLo, n.leafHi} {
		for _, m := range s {
			if !seen[m] && key.Closer(m, n.self) {
				seen[m] = true
				closer++
			}
		}
	}
	return closer < k
}

func refClosestLeafAvoiding(n *Node, key id.Node, excluded func(id.Node) bool) id.Node {
	best := n.self
	for _, s := range [][]id.Node{n.leafLo, n.leafHi} {
		for _, m := range s {
			if excluded(m) {
				continue
			}
			if key.Closer(m, best) {
				best = m
			}
		}
	}
	return best
}

// cwDist is a.DistCW(b) packed into a Node: (b - a) mod 2^128.
func cwDist(a, b id.Node) id.Node {
	d := a.DistCW(b)
	return id.NodeFromHalves(d.Hi, d.Lo)
}

// ringAdd returns a + d and ringSub a - d, mod 2^128.
func ringAdd(a, d id.Node) id.Node { return cwDist(cwDist(a, id.Node{}), d) }
func ringSub(a, d id.Node) id.Node { return cwDist(d, a) }

var halfRing = id.NodeFromHalves(1<<63, 0)

// randomRing returns size distinct non-zero ids. A third of them come
// in pairs c+d, c-d around a shared centre c, with c's antipode, so
// that keys exist with equidistant members on both sides; the centres
// are returned as extra keys to query.
func randomRing(r *rand.Rand, size int) (ring, centres []id.Node) {
	have := make(map[id.Node]bool)
	add := func(x id.Node) {
		if len(ring) < size && !x.IsZero() && !have[x] {
			have[x] = true
			ring = append(ring, x)
		}
	}
	for len(ring) < size/3 {
		c, d := randKey(r), randKey(r)
		centres = append(centres, c)
		add(ringAdd(c, d))
		add(ringSub(c, d))
		add(ringAdd(c, halfRing))
	}
	for len(ring) < size {
		add(randKey(r))
	}
	r.Shuffle(len(ring), func(i, j int) { ring[i], ring[j] = ring[j], ring[i] })
	return ring, centres
}

func sameNodes(a, b []id.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkLeafQueries compares every leaf-set query on n with the sort
// reference, for keys that are random, equal to self or a member, at
// their antipodes, and at the given extra keys.
func checkLeafQueries(t *testing.T, r *rand.Rand, n *Node, extra []id.Node, state string) {
	t.Helper()
	if got, want := n.leafSetLocked(), refLeafSet(n); !sameNodes(got, want) {
		t.Fatalf("%s: LeafSet = %v; want %v", state, short(got), short(want))
	}
	keys := append([]id.Node{n.self, ringAdd(n.self, halfRing), randKey(r), randKey(r)}, extra...)
	for _, side := range [][]id.Node{n.leafLo, n.leafHi} {
		if len(side) > 0 {
			m := side[r.Intn(len(side))]
			keys = append(keys, m, ringAdd(m, halfRing), side[len(side)-1])
		}
	}
	for _, key := range keys {
		for want := 0; want <= n.cfg.L+1; want++ {
			got, ref := n.closestLocked(key, want, true), refClosest(n, key, want)
			if !sameNodes(got, ref) {
				t.Fatalf("%s: %d closest to %s = %v; want %v (lo %v hi %v)", state, want, key.Short(),
					short(got), short(ref), short(n.leafLo), short(n.leafHi))
			}
		}
		for k := 1; k <= n.cfg.L/2+1; k++ {
			n.mu.Unlock() // IsAmongKClosest and DivertCandidates take the lock themselves
			got := n.IsAmongKClosest(key, k)
			prefix := []id.Node{key}
			cands, backup := n.DivertCandidates(key, k, prefix)
			n.mu.Lock()
			if want := refIsAmongKClosest(n, key, k); got != want {
				t.Fatalf("%s: IsAmongKClosest(%s, %d) = %v; want %v", state, key.Short(), k, got, want)
			}
			rs := refClosest(n, key, k)
			want := prefix
			for _, m := range refLeafSet(n) {
				if !slices.Contains(rs, m) {
					want = append(want, m)
				}
			}
			if !sameNodes(cands, want) {
				t.Fatalf("%s: DivertCandidates(%s, %d) = %v; want %v", state, key.Short(), k, short(cands), short(want))
			}
			var wantBackup id.Node
			if ext := refClosest(n, key, k+1); len(ext) > k {
				wantBackup = ext[k]
			}
			if backup != wantBackup {
				t.Fatalf("%s: DivertCandidates(%s, %d) backup = %s; want %s", state, key.Short(), k, backup.Short(), wantBackup.Short())
			}
		}
		dead := make(map[id.Node]bool)
		for _, m := range refLeafSet(n) {
			if r.Intn(2) == 0 {
				dead[m] = true
			}
		}
		excluded := func(x id.Node) bool { return dead[x] }
		if got, want := n.closestLeafAvoidingLocked(key, excluded), refClosestLeafAvoiding(n, key, excluded); got != want {
			t.Fatalf("%s: closest to %s avoiding %d = %s; want %s", state, key.Short(), len(dead), got.Short(), want.Short())
		}
	}
}

// TestLeafQueriesMatchSortReference drives one node's leaf set through
// the states it can reach — filled from rings of 1..80 nodes (sides
// disjoint, sides sharing members, a lone node), then churned by
// removals and re-insertions that leave holes a consistent fill never
// has — mirroring every mutation on the old sort-based insert, and
// checks all queries against the sort reference in each state.
func TestLeafQueriesMatchSortReference(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 16, 17, 18, 20, 24, 31, 32, 33, 34, 40, 50, 65, 80}
	if testing.Short() {
		sizes = []int{1, 2, 5, 9, 16, 17, 33, 50}
	}
	for _, l := range []int{8, 16, 32} {
		for _, size := range sizes {
			r := rand.New(rand.NewSource(int64(l*1000 + size)))
			ring, centres := randomRing(r, size)
			n := New(ring[0], netsim.New(), Config{B: 4, L: l}, nil, 1)
			n.mu.Lock()
			var refLo, refHi []id.Node
			mutate := func(x id.Node, insert bool) {
				if insert {
					if got, want := n.leafInsertLocked(x), refLeafInsert(n.self, &refLo, &refHi, x, l/2); got != want {
						t.Fatalf("l=%d N=%d: insert %s changed = %v; want %v", l, size, x.Short(), got, want)
					}
				} else {
					n.leafRemoveLocked(x)
					for _, side := range []*[]id.Node{&refLo, &refHi} {
						for i, m := range *side {
							if m == x {
								*side = append((*side)[:i], (*side)[i+1:]...)
								break
							}
						}
					}
				}
				if !sameNodes(n.leafLo, refLo) || !sameNodes(n.leafHi, refHi) {
					t.Fatalf("l=%d N=%d: sides lo %v hi %v; want lo %v hi %v", l, size,
						short(n.leafLo), short(n.leafHi), short(refLo), short(refHi))
				}
			}
			for _, x := range ring {
				mutate(x, true)
			}
			checkLeafQueries(t, r, n, centres, fmt.Sprintf("l=%d N=%d filled", l, size))
			for step := 0; step < 40 && size > 1; step++ {
				x := ring[1+r.Intn(size-1)]
				mutate(x, r.Intn(2) == 0)
				if step%4 == 3 {
					checkLeafQueries(t, r, n, centres, fmt.Sprintf("l=%d N=%d churn step %d", l, size, step))
				}
			}
			n.mu.Unlock()
		}
	}
}

// TestLeafQueriesSmallRings checks every leaf-set query, the diversion
// candidates and backup node among them, on the ring sizes where the
// leaf set and the replica set meet: N in {1, 2, k, k+1, l/2, l/2+1, l,
// l+1, 2l}, for the paper's k=5, the bound k=l/2+1, and k=1.
func TestLeafQueriesSmallRings(t *testing.T) {
	for _, l := range []int{8, 16, 32} {
		sizes := map[int]bool{}
		for _, k := range []int{1, 5, l/2 + 1} {
			for _, size := range []int{1, 2, k, k + 1, l / 2, l/2 + 1, l, l + 1, 2 * l} {
				sizes[size] = true
			}
		}
		for size := range sizes {
			r := rand.New(rand.NewSource(int64(l*1000 + size)))
			ring, centres := randomRing(r, size)
			n := New(ring[0], netsim.New(), Config{B: 4, L: l}, nil, 1)
			n.mu.Lock()
			for _, x := range ring {
				n.leafInsertLocked(x)
			}
			checkLeafQueries(t, r, n, append(centres, ring...), fmt.Sprintf("l=%d N=%d", l, size))
			n.mu.Unlock()
		}
	}
}

// TestLeafQueriesUnderChurn runs the query methods from several
// goroutines while the leaf set is mutated; under -race this checks the
// walk touches the sides only with the lock held. Every answer must be
// a closest-first list of distinct nodes.
func TestLeafQueriesUnderChurn(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ring, _ := randomRing(r, 40)
	n := New(ring[0], netsim.New(), Config{B: 4, L: 16}, nil, 1)
	for _, x := range ring {
		n.mu.Lock()
		n.leafInsertLocked(x)
		n.mu.Unlock()
	}
	closestFirst := func(from id.Node, got []id.Node) {
		for i := 1; i < len(got); i++ {
			if !from.Closer(got[i-1], got[i]) {
				t.Errorf("answer %v is not closest-first from %s", short(got), from.Short())
			}
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := randKey(r)
				closestFirst(key, n.ReplicaSet(key, 5))
				closestFirst(key, n.FragmentTargets(key, 17))
				closestFirst(n.self, n.LeafSet())
				cands, _ := n.DivertCandidates(key, 5, nil)
				closestFirst(n.self, cands)
				n.IsAmongKClosest(key, 5)
			}
		}(int64(g))
	}
	for step := 0; step < 2000; step++ {
		x := ring[1+r.Intn(len(ring)-1)]
		n.mu.Lock()
		if r.Intn(2) == 0 {
			n.leafInsertLocked(x)
		} else {
			n.leafRemoveLocked(x)
		}
		n.mu.Unlock()
	}
	close(stop)
	wg.Wait()
}
