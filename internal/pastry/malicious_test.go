package pastry

import (
	"testing"

	"past/internal/id"
)

// Section 2.3: Pastry as described is deterministic and thus vulnerable
// to a malicious node along the route that accepts messages but does not
// forward them correctly; repeated queries would fail each time. The
// routing is therefore randomized so the client's retries eventually
// avoid the bad node.

// servedApp marks deliveries so the test can tell a real delivery from a
// swallowed message.
type servedApp struct{ self id.Node }

func (a servedApp) Forward(id.Node, any) (bool, any, error) { return false, nil, nil }
func (a servedApp) Deliver(key id.Node, msg any) (any, error) {
	return "served-by-" + a.self.Short(), nil
}
func (a servedApp) Backward(id.Node, any, any) {}

// evilEndpoint swallows routed messages: it acknowledges them with an
// empty reply instead of forwarding, but answers everything else
// honestly so it is never presumed failed.
type evilEndpoint struct{ inner *Node }

func (e *evilEndpoint) Deliver(from id.Node, msg any) (any, error) {
	if req, ok := msg.(*RouteRequest); ok {
		return &RouteReply{Hops: req.Hops}, nil
	}
	return e.inner.Deliver(from, msg)
}

// buildServedCluster is buildCluster with the marking application.
func buildServedCluster(t *testing.T, n int, cfg Config, seed int64) *cluster {
	t.Helper()
	c := buildCluster(t, n, cfg, seed)
	for _, node := range c.nodes {
		node.app = servedApp{self: node.ID()} // before any traffic
	}
	return c
}

// plantEvil finds a (client, key) pair whose route has an intermediate
// node, corrupts that node, and returns the pieces. It reports false if
// no suitable route exists at this scale.
func plantEvil(t *testing.T, c *cluster) (client *Node, key id.Node, evil id.Node, ok bool) {
	t.Helper()
	for try := 0; try < 200; try++ {
		key = randKey(c.rng)
		client = c.randomAliveNode()
		_, path, err := routePath(client, key)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) < 3 {
			continue // no intermediate hop to corrupt
		}
		evil = path[1] // first hop: intermediate, not origin, not terminal
		pos, _ := c.net.Position(evil)
		c.net.Register(evil, pos, &evilEndpoint{inner: c.nodes[evil]})
		return client, key, evil, true
	}
	return nil, id.Node{}, id.Node{}, false
}

func TestMaliciousNodeDefeatsDeterministicRouting(t *testing.T) {
	c := buildServedCluster(t, 150, Config{B: 4, L: 16}, 41) // RandomizeP = 0
	client, key, _, ok := plantEvil(t, c)
	if !ok {
		t.Skip("no multi-hop route at this scale")
	}
	// Every retry takes the identical path through the bad node and is
	// swallowed.
	for i := 0; i < 20; i++ {
		reply, _, err := client.Route(key, "probe")
		if err != nil {
			t.Fatal(err)
		}
		if reply != nil {
			t.Fatalf("retry %d was served despite the deterministic path crossing the bad node", i)
		}
	}
}

func TestRandomizedRoutingEvadesMaliciousNode(t *testing.T) {
	c := buildServedCluster(t, 150, Config{B: 4, L: 16, RandomizeP: 0.5}, 41)
	client, key, evil, ok := plantEvil(t, c)
	if !ok {
		t.Skip("no multi-hop route at this scale")
	}
	served := false
	for i := 0; i < 40 && !served; i++ {
		reply, _, err := client.Route(key, "probe")
		if err != nil {
			t.Fatal(err)
		}
		if s, isStr := reply.(string); isStr && s != "" {
			served = true
		}
	}
	if !served {
		t.Fatalf("40 randomized retries never avoided the malicious node %s", evil.Short())
	}
}
