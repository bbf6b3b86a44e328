package chaos

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"past/internal/id"
)

// The checker unit tests audit one file on hand-written censuses. Node
// ids are offsets from the file's key, so which nodes are the k
// closest is fixed by construction: near(1..3) are the replica set,
// far(..) nodes lie half a ring away.

var testFile = id.NewFile("f", nil, 1)

func near(d uint64) id.Node {
	hi, lo := testFile.Key().Halves()
	if lo+d < lo {
		hi++
	}
	return id.NodeFromHalves(hi, lo+d)
}

func far(d uint64) id.Node {
	hi, lo := near(d).Halves()
	return id.NodeFromHalves(hi^1<<63, lo)
}

// primary is a node holding a primary replica of the file.
var primary = Hold{Has: true, Primary: true}

// node is a live node with one hold of the file.
func node(nid id.Node, h Hold) NodeHolds {
	return NodeHolds{ID: nid, Alive: true, Holds: []Hold{h}}
}

// census assembles the nodes in ascending nodeId order.
func census(nodes ...NodeHolds) *Census {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID.Less(nodes[j].ID) })
	return &Census{Files: []id.File{testFile}, Nodes: nodes}
}

// healthy is the converged replica set: near(1..3) hold primaries.
func healthy(extra ...NodeHolds) *Census {
	return census(append([]NodeHolds{
		node(near(1), primary), node(near(2), primary), node(near(3), primary),
	}, extra...)...)
}

func kinds(v []Violation) map[ViolationKind]int {
	out := map[ViolationKind]int{}
	for _, x := range v {
		out[x.Kind]++
	}
	return out
}

func TestCheckerHealthy(t *testing.T) {
	ck := &Checker{K: 3}
	c := healthy()
	if v := ck.CheckDurability(c, 1); len(v) != 0 {
		t.Fatalf("healthy durability: %v", v)
	}
	if v := ck.CheckConverged(c, 1); len(v) != 0 {
		t.Fatalf("healthy convergence: %v", v)
	}
}

func TestCheckerPointerCoverage(t *testing.T) {
	// near(3) covers its slot with a pointer to a live out-of-set
	// holder far(4): the paper's diverted replica, fully legal.
	ck := &Checker{K: 3}
	c := census(
		node(near(1), primary), node(near(2), primary),
		node(near(3), Hold{HasPtr: true, Ptr: far(4)}),
		node(far(4), Hold{Has: true}), // diverted-in at far(4)
	)
	if v := ck.CheckConverged(c, 1); len(v) != 0 {
		t.Fatalf("pointer coverage must satisfy the invariant: %v", v)
	}
}

func TestCheckerLost(t *testing.T) {
	ck := &Checker{K: 3}
	c := healthy()
	for i := range c.Nodes {
		c.Nodes[i].Alive = false
	}
	var seen []Violation
	ck.OnViolation = func(v Violation) { seen = append(seen, v) }
	v := ck.CheckDurability(c, 7)
	if len(v) != 1 || v[0].Kind != ViolationLost || v[0].Epoch != 7 || v[0].Actual != 0 {
		t.Fatalf("violations = %v", v)
	}
	if len(seen) != 1 {
		t.Fatal("OnViolation hook did not fire")
	}
	if v[0].String() == "" {
		t.Fatal("violation must render")
	}
}

func TestCheckerUnderReplicated(t *testing.T) {
	ck := &Checker{K: 3}
	c := census(node(near(1), primary), node(near(2), primary), node(near(3), Hold{}))
	v := ck.CheckConverged(c, 2)
	if len(v) != 1 || v[0].Kind != ViolationUnderReplicated {
		t.Fatalf("violations = %v", v)
	}
	if v[0].Expected != 3 || v[0].Actual != 2 {
		t.Fatalf("accounting = expected %d actual %d", v[0].Expected, v[0].Actual)
	}
}

func TestCheckerDanglingPointer(t *testing.T) {
	ck := &Checker{K: 3}
	c := census(
		node(near(1), primary), node(near(2), primary),
		node(near(3), Hold{HasPtr: true, Ptr: far(4)}),
		NodeHolds{ID: far(4), Holds: []Hold{{Has: true}}}, // dead
	)
	v := ck.CheckConverged(c, 3)
	if k := kinds(v); k[ViolationDanglingPointer] != 1 || k[ViolationUnderReplicated] != 1 {
		t.Fatalf("violations = %v", v)
	}
}

func TestCheckerStrayReplica(t *testing.T) {
	ck := &Checker{K: 3}
	// An unreferenced primary outside the set.
	v := ck.CheckConverged(healthy(node(far(5), primary)), 4)
	if len(v) != 1 || v[0].Kind != ViolationStray || v[0].Node != far(5) {
		t.Fatalf("violations = %v", v)
	}
	// The same holder referenced by an in-set pointer is NOT stray.
	c := census(
		node(near(1), primary), node(near(2), primary),
		node(near(3), Hold{HasPtr: true, Ptr: far(5)}),
		node(far(5), primary),
	)
	if v := ck.CheckConverged(c, 5); len(v) != 0 {
		t.Fatalf("referenced holder flagged: %v", v)
	}
}

// TestCheckerECShapeFromDeadHolders pins the one place the emulator's
// census and the live fleet's differ by construction. Every map holder
// of an rs(3,2) object is down and two fragments survive. The emulator
// still has the dead holders' holds, so it knows the coding shape and
// also reports the fragments lost; a fleet census has no holds for dead
// processes and reports the file lost alone.
func TestCheckerECShapeFromDeadHolders(t *testing.T) {
	ck := &Checker{K: 3}
	mapHold := Hold{Has: true, Primary: true, ECData: 3, ECTotal: 5}
	frags := []NodeHolds{node(far(1), Hold{Frags: []int{0}}), node(far(2), Hold{Frags: []int{1}})}
	for _, tc := range []struct {
		name  string
		holds []Hold
		want  map[ViolationKind]int
	}{
		{"dead holds present", []Hold{mapHold}, map[ViolationKind]int{ViolationLost: 1, ViolationFragmentsLost: 1}},
		{"dead holds absent", nil, map[ViolationKind]int{ViolationLost: 1}},
	} {
		nodes := append([]NodeHolds(nil), frags...)
		for d := uint64(1); d <= 3; d++ {
			nodes = append(nodes, NodeHolds{ID: near(d), Holds: tc.holds})
		}
		if got := kinds(ck.CheckDurability(census(nodes...), 6)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: violations %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestClosestMatchesSort: the brute-force search agrees with sorting
// the whole ring by distance to the key.
func TestClosestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nodes := make([]id.Node, 40)
	for i := range nodes {
		rng.Read(nodes[i][:])
	}
	for trial := 0; trial < 20; trial++ {
		var key id.Node
		rng.Read(key[:])
		sorted := append([]id.Node(nil), nodes...)
		sort.Slice(sorted, func(i, j int) bool { return key.Closer(sorted[i], sorted[j]) })
		for _, k := range []int{0, 1, 5, 40, 50} {
			want := sorted[:min(k, len(sorted))]
			if got := Closest(key, nodes, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d: Closest = %v, want %v", k, got, want)
			}
		}
	}
}
