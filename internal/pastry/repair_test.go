package pastry

import (
	"testing"

	"past/internal/id"
)

// TestTableRepairAfterFailure exercises the lazy routing-table repair:
// a route that discovers a dead table entry must both drop it and
// refill the slot from same-row peers when a live candidate exists.
func TestTableRepairAfterFailure(t *testing.T) {
	c := buildCluster(t, 200, Config{B: 4, L: 16}, 77)

	repaired := 0
	for _, nid := range c.net.AliveNodes() {
		if repaired >= 3 {
			break
		}
		a := c.nodes[nid]
		row := a.TableRow(0)
		for col, dead := range row {
			if dead.IsZero() || !c.net.Alive(dead) {
				continue
			}
			// Is there another live node with first digit col (a
			// replacement candidate)?
			replacements := 0
			for _, other := range c.net.AliveNodes() {
				if other != dead && other.Digit(0, 4) == col {
					replacements++
				}
			}
			if replacements == 0 {
				continue
			}

			c.net.Fail(dead)
			// Route toward the dead node's id: the first hop uses the
			// dead table entry, discovers the failure, and repairs.
			if _, _, err := a.Route(dead, nil); err != nil {
				t.Fatal(err)
			}
			got := a.TableRow(0)[col]
			if got == dead {
				t.Fatalf("dead entry %s still in table", dead.Short())
			}
			if got.IsZero() {
				t.Fatalf("slot (0,%d) not repaired despite %d live candidates", col, replacements)
			}
			if got.Digit(0, 4) != col || !c.net.Alive(got) {
				t.Fatalf("repair installed invalid entry %s", got.Short())
			}
			c.net.Recover(dead)
			repaired++
			break
		}
	}
	if repaired == 0 {
		t.Fatal("no repairable slot found at this scale")
	}
}

// TestRowRequestBounds checks the repair RPC's row validation.
func TestRowRequestBounds(t *testing.T) {
	c := buildCluster(t, 10, Config{B: 4, L: 8}, 78)
	a := c.nodes[c.order[0]]
	res, err := a.Deliver(id.NodeFromUint64(1), &RowRequest{Row: -1})
	if err != nil || len(res.(*RowReply).Entries) != 0 {
		t.Fatal("negative row must return empty")
	}
	res, err = a.Deliver(id.NodeFromUint64(1), &RowRequest{Row: 10_000})
	if err != nil || len(res.(*RowReply).Entries) != 0 {
		t.Fatal("out-of-range row must return empty")
	}
	res, err = a.Deliver(id.NodeFromUint64(1), &RowRequest{Row: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.(*RowReply).Entries {
		if e.IsZero() {
			t.Fatal("row reply contains empty entries")
		}
	}
}

// TestDepartRemovesFromAllState verifies graceful departure: after
// Depart, no node the leaver knew still lists it in its leaf set (the
// symmetric state that matters for replica placement), and routing
// remains correct. Routing-table references elsewhere are asymmetric —
// the leaver cannot know who points at it — and are repaired lazily on
// first use, exactly as the paper prescribes.
func TestDepartRemovesFromAllState(t *testing.T) {
	c := buildCluster(t, 40, Config{B: 4, L: 8}, 79)
	leaver := c.nodes[c.order[7]]
	leaver.Depart()
	c.net.Remove(leaver.ID())

	for _, nid := range c.net.AliveNodes() {
		n := c.nodes[nid]
		for _, m := range n.LeafSet() {
			if m == leaver.ID() {
				t.Fatalf("node %s still has departed node in leaf set", nid.Short())
			}
		}
	}
	if leaver.Joined() {
		t.Fatal("departed node still reports joined")
	}
	// Routing still reaches the correct closest nodes.
	for i := 0; i < 50; i++ {
		key := randKey(c.rng)
		src := c.randomAliveNode()
		_, path, err := routePath(src, key)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := path[len(path)-1], c.globalClosest(key); got != want {
			t.Fatalf("post-departure route ended at %s; want %s", got.Short(), want.Short())
		}
	}
}
