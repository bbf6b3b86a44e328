package pastry

import (
	"testing"

	"past/internal/obs"
)

// TestTracedRouteHopRecords checks the per-hop trace of clean routes:
// records chain from the origin to the consuming node, end in exactly
// one local record, and count the same hops the route reply reports.
// forwardHops counts the records of a trace that moved the message: a
// complete route's hop count, failed attempts and the final local
// delivery excluded.
func forwardHops(trace []obs.HopRecord) int {
	n := 0
	for _, h := range trace {
		if !h.Failed && h.Choice != obs.ChoiceLocal {
			n++
		}
	}
	return n
}

func TestTracedRouteHopRecords(t *testing.T) {
	c := buildCluster(t, 60, Config{B: 4, L: 16}, 94)
	multi := 0
	for i := 0; i < 50; i++ {
		key := randKey(c.rng)
		src := c.randomAliveNode()
		_, hops, trace, err := src.RouteContext(tracedCtx, key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(trace) == 0 {
			t.Fatal("traced route returned no hop records")
		}
		last := trace[len(trace)-1]
		if last.Choice != obs.ChoiceLocal || last.From != last.To {
			t.Fatalf("trace must end in a local record, got %+v", last)
		}
		for j, h := range trace[:len(trace)-1] {
			if h.Choice == obs.ChoiceLocal {
				t.Fatalf("interior record %d is local: %+v", j, h)
			}
			if h.To != trace[j+1].From {
				t.Fatalf("trace broken at %d: hop to %s but next record from %s",
					j, h.To.Short(), trace[j+1].From.Short())
			}
		}
		if trace[0].From != src.ID() {
			t.Fatalf("trace starts at %s, want origin %s", trace[0].From.Short(), src.ID().Short())
		}
		if got := forwardHops(trace); got != hops {
			t.Fatalf("trace hop count %d != route hops %d", got, hops)
		}
		if hops > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-hop route traced at this scale; test proves nothing")
	}
}

// TestTracedRerouteOrdering kills the route's first hop and checks the
// failure's trace shape: the dead hop's record stays, marked failed,
// immediately followed by the alternate labeled as a reroute, and the
// failed record never counts toward the hop count.
func TestTracedRerouteOrdering(t *testing.T) {
	c := buildCluster(t, 60, Config{B: 4, L: 16}, 95)
	rerouted := 0
	for i := 0; i < 200 && rerouted < 5; i++ {
		key := randKey(c.rng)
		src := c.randomAliveNode()
		hop := src.FirstHop(key)
		if hop.IsZero() {
			continue
		}
		c.net.Fail(hop)
		_, hops, trace, err := src.RouteContext(tracedCtx, key, nil)
		if err != nil {
			t.Fatalf("route with dead first hop %s: %v", hop.Short(), err)
		}
		c.net.Recover(hop)

		failedAt := -1
		for j, h := range trace {
			if h.Failed {
				if h.To != hop {
					t.Fatalf("failed record points at %s, want dead hop %s", h.To.Short(), hop.Short())
				}
				failedAt = j
				break
			}
		}
		if failedAt == -1 {
			t.Fatal("no failed hop record in a rerouted trace")
		}
		next := trace[failedAt+1]
		if next.Choice != obs.ChoiceReroute {
			t.Fatalf("record after the failure has choice %q, want %q", next.Choice, obs.ChoiceReroute)
		}
		if next.From != trace[failedAt].From {
			t.Fatal("reroute must be retried from the node that saw the failure")
		}
		if got := forwardHops(trace); got != hops {
			t.Fatalf("trace hop count %d != route hops %d", got, hops)
		}
		rerouted++
	}
	if rerouted < 5 {
		t.Fatalf("only %d reroutes exercised at this scale", rerouted)
	}
}
