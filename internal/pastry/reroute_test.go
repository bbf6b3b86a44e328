package pastry

import (
	"testing"

	"past/internal/netsim"
)

// TestRouteCompletesViaAlternate kills the exact next hop a route is
// about to take and asserts the route still completes — delivered at
// the numerically closest live node — with the reroute accounted and
// the dead hop absent from the traversed path.
func TestRouteCompletesViaAlternate(t *testing.T) {
	c := buildCluster(t, 60, Config{B: 4, L: 16}, 91)
	rerouted := 0
	for i := 0; i < 200 && rerouted < 5; i++ {
		key := randKey(c.rng)
		src := c.randomAliveNode()
		hop := src.FirstHop(key)
		if hop.IsZero() {
			continue // src would consume the message itself
		}
		c.net.Fail(hop)
		before := src.Reroutes()
		_, path, err := routePath(src, key)
		if err != nil {
			t.Fatalf("route with dead first hop %s: %v", hop.Short(), err)
		}
		if got, want := path[len(path)-1], c.globalClosest(key); got != want {
			t.Fatalf("rerouted request ended at %s; want %s", got.Short(), want.Short())
		}
		for _, p := range path {
			if p == hop {
				t.Fatalf("path traversed the dead hop %s", hop.Short())
			}
		}
		if src.Reroutes() <= before {
			t.Fatal("reroute not accounted on the source node")
		}
		c.net.Recover(hop)
		rerouted++
	}
	if rerouted < 5 {
		t.Fatalf("only %d reroutes exercised at this scale", rerouted)
	}
}

// TestFailFastDisablesReroute pins the baseline semantics the soak
// comparison relies on: with FailFast set, a dead next hop aborts the
// route with a retryable error instead of trying alternates.
func TestFailFastDisablesReroute(t *testing.T) {
	c := buildCluster(t, 60, Config{B: 4, L: 16, FailFast: true}, 92)
	failed := 0
	for i := 0; i < 200 && failed < 5; i++ {
		key := randKey(c.rng)
		src := c.randomAliveNode()
		hop := src.FirstHop(key)
		if hop.IsZero() {
			continue
		}
		c.net.Fail(hop)
		before := src.Reroutes()
		_, _, err := src.Route(key, nil)
		if err == nil {
			t.Fatal("fail-fast route through a dead hop must error")
		}
		if !netsim.Retryable(err) {
			t.Fatalf("fail-fast route error must stay retryable, got %v", err)
		}
		if src.Reroutes() != before {
			t.Fatal("fail-fast route must not account reroutes")
		}
		c.net.Recover(hop)
		failed++
	}
	if failed < 5 {
		t.Fatalf("only %d fail-fast routes exercised at this scale", failed)
	}
}
