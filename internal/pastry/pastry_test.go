package pastry

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"past/internal/id"
	"past/internal/netsim"
	"past/internal/obs"
	"past/internal/topology"
)

// cluster is an emulated Pastry network for tests.
type cluster struct {
	net   *netsim.Network
	nodes map[id.Node]*Node
	order []id.Node // join order
	rng   *rand.Rand
}

// buildCluster constructs an n-node network by sequential joins, each new
// node bootstrapping from the proximally closest existing node (as the
// protocol prescribes).
func buildCluster(t testing.TB, n int, cfg Config, seed int64) *cluster {
	t.Helper()
	c := &cluster{
		net:   netsim.New(),
		nodes: make(map[id.Node]*Node),
		rng:   rand.New(rand.NewSource(seed)),
	}
	plane := topology.DefaultPlane
	for i := 0; i < n; i++ {
		var nid id.Node
		c.rng.Read(nid[:])
		pos := plane.RandomPoint(c.rng)
		node := New(nid, c.net, cfg, nil, c.rng.Int63())
		c.net.Register(nid, pos, node)
		if i == 0 {
			node.Bootstrap()
		} else {
			boot := c.closestExisting(pos)
			if err := node.Join(boot); err != nil {
				t.Fatalf("join node %d: %v", i, err)
			}
		}
		c.nodes[nid] = node
		c.order = append(c.order, nid)
	}
	return c
}

func (c *cluster) closestExisting(pos topology.Point) id.Node {
	best := id.Node{}
	bestD := math.Inf(1)
	for nid := range c.nodes {
		p, _ := c.net.Position(nid)
		if d := topology.Distance(pos, p); d < bestD {
			best, bestD = nid, d
		}
	}
	return best
}

// tracedCtx asks RouteContext for hop records: a sampled trace context
// without an id records on every hop but names no cross-process trace.
var tracedCtx = obs.ContextWithTrace(context.Background(), obs.TraceContext{Sampled: true})

// routePath routes a nil payload from src toward key and returns the hop
// count and the nodes the message visited, origin first and consumer
// last, read off the route's hop records: every visited node leaves
// exactly one record that is not a failed attempt — its forward, or the
// consumer's local record.
func routePath(src *Node, key id.Node) (hops int, path []id.Node, err error) {
	_, hops, trace, err := src.RouteContext(tracedCtx, key, nil)
	for _, h := range trace {
		if !h.Failed {
			path = append(path, h.From)
		}
	}
	return hops, path, err
}

// globalClosest returns the live node numerically closest to key, by
// brute force.
func (c *cluster) globalClosest(key id.Node) id.Node {
	var best id.Node
	first := true
	for nid := range c.nodes {
		if !c.net.Alive(nid) {
			continue
		}
		if first || key.Closer(nid, best) {
			best, first = nid, false
		}
	}
	return best
}

func (c *cluster) randomAliveNode() *Node {
	alive := c.net.AliveNodes()
	return c.nodes[alive[c.rng.Intn(len(alive))]]
}

func randKey(r *rand.Rand) id.Node {
	var k id.Node
	r.Read(k[:])
	return k
}

func TestRouteReachesNumericallyClosest(t *testing.T) {
	c := buildCluster(t, 60, Config{B: 4, L: 16}, 1)
	for i := 0; i < 300; i++ {
		key := randKey(c.rng)
		src := c.randomAliveNode()
		hops, path, err := routePath(src, key)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		want := c.globalClosest(key)
		if got := path[len(path)-1]; got != want {
			t.Fatalf("route %d for key %s ended at %s; want %s",
				i, key.Short(), got.Short(), want.Short())
		}
		if hops != len(path)-1 {
			t.Fatalf("hops %d inconsistent with path length %d", hops, len(path))
		}
	}
}

func TestRouteHopBoundLogarithmic(t *testing.T) {
	c := buildCluster(t, 150, Config{B: 4, L: 16}, 2)
	bound := int(math.Ceil(math.Log(150)/math.Log(16))) + 2 // ceil(log_16 N) with slack for leaf steps
	total, worst := 0, 0
	const trials = 400
	for i := 0; i < trials; i++ {
		key := randKey(c.rng)
		src := c.randomAliveNode()
		_, hops, err := src.Route(key, nil)
		if err != nil {
			t.Fatal(err)
		}
		total += hops
		if hops > worst {
			worst = hops
		}
	}
	avg := float64(total) / trials
	if avg > float64(bound) {
		t.Fatalf("average hops %.2f exceeds %d", avg, bound)
	}
	if worst > 2*bound {
		t.Fatalf("worst hops %d exceeds %d", worst, 2*bound)
	}
	t.Logf("avg hops %.2f, worst %d (ceil(log_16 150)=%d)", avg, worst, bound)
}

func TestLeafSetMatchesGroundTruth(t *testing.T) {
	cfg := Config{B: 4, L: 8}
	c := buildCluster(t, 40, cfg, 3)
	all := c.net.Nodes()
	for nid, node := range c.nodes {
		lo, hi := node.LeafSides()
		wantHi := ringSuccessors(all, nid, cfg.L/2)
		wantLo := ringPredecessors(all, nid, cfg.L/2)
		if !sameSet(hi, wantHi) {
			t.Fatalf("node %s leafHi = %v; want %v", nid.Short(), short(hi), short(wantHi))
		}
		if !sameSet(lo, wantLo) {
			t.Fatalf("node %s leafLo = %v; want %v", nid.Short(), short(lo), short(wantLo))
		}
	}
}

func ringSuccessors(sorted []id.Node, from id.Node, k int) []id.Node {
	idx := indexOf(sorted, from)
	var out []id.Node
	for i := 1; i <= k && i < len(sorted); i++ {
		out = append(out, sorted[(idx+i)%len(sorted)])
	}
	return out
}

func ringPredecessors(sorted []id.Node, from id.Node, k int) []id.Node {
	idx := indexOf(sorted, from)
	var out []id.Node
	for i := 1; i <= k && i < len(sorted); i++ {
		out = append(out, sorted[(idx-i+len(sorted))%len(sorted)])
	}
	return out
}

func indexOf(sorted []id.Node, x id.Node) int {
	for i, n := range sorted {
		if n == x {
			return i
		}
	}
	return -1
}

func sameSet(a, b []id.Node) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[id.Node]bool, len(a))
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}

func short(ids []id.Node) []string {
	out := make([]string, len(ids))
	for i, n := range ids {
		out[i] = n.Short()
	}
	sort.Strings(out)
	return out
}

// TestSmallRingRoutes covers rings around the leaf-set size, where the
// two sides of a leaf set overlap (N <= l) or just stop overlapping: a
// node whose sides overlap knows the whole ring, so every route must
// end at the numerically closest node and IsAmongKClosest must agree
// with a global count.
func TestSmallRingRoutes(t *testing.T) {
	for _, size := range []int{9, 10, 12, 16, 17, 20} {
		for seed := int64(1); seed <= 10; seed++ {
			c := buildCluster(t, size, Config{B: 4, L: 16}, seed)
			for i := 0; i < 200; i++ {
				key := randKey(c.rng)
				_, path, err := routePath(c.randomAliveNode(), key)
				if err != nil {
					t.Fatalf("N=%d seed %d: route: %v", size, seed, err)
				}
				if got, want := path[len(path)-1], c.globalClosest(key); got != want {
					t.Errorf("N=%d seed %d: route for key %s ended at %s; want %s", size, seed, key.Short(), got.Short(), want.Short())
				}
				node := c.randomAliveNode()
				closer := 0
				for nid := range c.nodes {
					if key.Closer(nid, node.ID()) {
						closer++
					}
				}
				for _, k := range []int{1, 3, 5} {
					if got, want := node.IsAmongKClosest(key, k), closer < k; got != want {
						t.Errorf("N=%d seed %d: %s.IsAmongKClosest(%s, %d) = %v; %d nodes are closer", size, seed, node.ID().Short(), key.Short(), k, got, closer)
					}
				}
			}
		}
	}
}

func TestReplicaSetMatchesBruteForce(t *testing.T) {
	c := buildCluster(t, 50, Config{B: 4, L: 16}, 4)
	all := c.net.Nodes()
	for i := 0; i < 100; i++ {
		key := randKey(c.rng)
		// Brute-force k closest.
		sorted := append([]id.Node(nil), all...)
		sort.Slice(sorted, func(a, b int) bool { return key.Closer(sorted[a], sorted[b]) })
		want := sorted[:5]
		// Ask the globally closest node (a member of the replica set).
		got := c.nodes[want[0]].ReplicaSet(key, 5)
		if !sameSet(got, want) {
			t.Fatalf("replica set for %s = %v; want %v", key.Short(), short(got), short(want))
		}
	}
}

func TestNodeFailureRepair(t *testing.T) {
	cfg := Config{B: 4, L: 8}
	c := buildCluster(t, 40, cfg, 5)

	// Fail 6 random nodes (fewer than l/2 adjacent, with high probability).
	alive := c.net.AliveNodes()
	c.rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	for _, nid := range alive[:6] {
		c.net.Fail(nid)
	}

	// Two maintenance rounds, as the keep-alive timers would do.
	for round := 0; round < 2; round++ {
		for _, nid := range c.net.AliveNodes() {
			c.nodes[nid].CheckLeafSet()
		}
	}

	// Leaf sets must now match ground truth over live nodes.
	liveSorted := c.net.AliveNodes()
	for _, nid := range liveSorted {
		lo, hi := c.nodes[nid].LeafSides()
		wantHi := ringSuccessors(liveSorted, nid, cfg.L/2)
		wantLo := ringPredecessors(liveSorted, nid, cfg.L/2)
		if !sameSet(hi, wantHi) || !sameSet(lo, wantLo) {
			t.Fatalf("node %s leaf sets not repaired: hi=%v want %v / lo=%v want %v",
				nid.Short(), short(hi), short(wantHi), short(lo), short(wantLo))
		}
	}

	// Routing still reaches the numerically closest live node.
	for i := 0; i < 200; i++ {
		key := randKey(c.rng)
		src := c.randomAliveNode()
		_, path, err := routePath(src, key)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := path[len(path)-1], c.globalClosest(key); got != want {
			t.Fatalf("after failures, route ended at %s; want %s", got.Short(), want.Short())
		}
	}
}

func TestRouteAroundFreshFailure(t *testing.T) {
	// Routing must succeed even before any maintenance round, by
	// discovering dead next-hops and retrying.
	c := buildCluster(t, 60, Config{B: 4, L: 16}, 6)
	alive := c.net.AliveNodes()
	c.rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	for _, nid := range alive[:8] {
		c.net.Fail(nid)
	}
	for i := 0; i < 100; i++ {
		key := randKey(c.rng)
		src := c.randomAliveNode()
		_, path, err := routePath(src, key)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := path[len(path)-1], c.globalClosest(key); got != want {
			t.Fatalf("route ended at %s; want %s", got.Short(), want.Short())
		}
	}
}

func TestRejoinAfterRecovery(t *testing.T) {
	cfg := Config{B: 4, L: 8}
	c := buildCluster(t, 30, cfg, 7)
	victim := c.order[10]
	lastLeaf := c.nodes[victim].LeafSet()

	c.net.Fail(victim)
	for _, nid := range c.net.AliveNodes() {
		c.nodes[nid].CheckLeafSet()
	}

	c.net.Recover(victim)
	if err := c.nodes[victim].Rejoin(lastLeaf); err != nil {
		t.Fatal(err)
	}
	for _, nid := range c.net.AliveNodes() {
		c.nodes[nid].CheckLeafSet()
	}

	liveSorted := c.net.AliveNodes()
	lo, hi := c.nodes[victim].LeafSides()
	if !sameSet(hi, ringSuccessors(liveSorted, victim, cfg.L/2)) ||
		!sameSet(lo, ringPredecessors(liveSorted, victim, cfg.L/2)) {
		t.Fatal("recovered node's leaf set not rebuilt")
	}
	// And the ring routes through it again.
	want := c.globalClosest(victim)
	if want != victim {
		t.Fatal("sanity: recovered node should be closest to its own id")
	}
	_, path, err := routePath(c.randomAliveNode(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if path[len(path)-1] != victim {
		t.Fatal("routes do not reach the recovered node")
	}
}

func TestRejoinAllDeadFails(t *testing.T) {
	c := buildCluster(t, 10, Config{B: 4, L: 4}, 8)
	victim := c.order[5]
	lastLeaf := c.nodes[victim].LeafSet()
	for _, m := range lastLeaf {
		c.net.Fail(m)
	}
	c.net.Fail(victim)
	c.net.Recover(victim)
	if err := c.nodes[victim].Rejoin(lastLeaf); err == nil {
		t.Fatal("rejoin with all known nodes dead must fail")
	}
}

func TestRandomizedRoutingStillCorrect(t *testing.T) {
	c := buildCluster(t, 60, Config{B: 4, L: 16, RandomizeP: 0.5}, 9)
	for i := 0; i < 200; i++ {
		key := randKey(c.rng)
		src := c.randomAliveNode()
		_, path, err := routePath(src, key)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := path[len(path)-1], c.globalClosest(key); got != want {
			t.Fatalf("randomized route ended at %s; want %s", got.Short(), want.Short())
		}
	}
}

func TestRandomizedRoutingDiversifiesPaths(t *testing.T) {
	c := buildCluster(t, 200, Config{B: 4, L: 16, RandomizeP: 0.5}, 10)
	// Routes are short (log_16 N), so randomization only has room to act
	// on some (src, key) pairs; require that at least one pair shows
	// multiple distinct paths.
	diversified := false
	for trial := 0; trial < 10 && !diversified; trial++ {
		key := randKey(c.rng)
		src := c.randomAliveNode()
		paths := make(map[string]bool)
		for i := 0; i < 30; i++ {
			_, path, err := routePath(src, key)
			if err != nil {
				t.Fatal(err)
			}
			s := ""
			for _, p := range path {
				s += p.Short()
			}
			paths[s] = true
		}
		if len(paths) >= 2 {
			diversified = true
		}
	}
	if !diversified {
		t.Fatal("randomized routing never explored multiple paths")
	}
}

func TestIDCollisionRejected(t *testing.T) {
	c := buildCluster(t, 5, Config{B: 4, L: 4}, 11)
	dup := New(c.order[2], c.net, Config{B: 4, L: 4}, nil, 99)
	// Register under a throwaway id so the duplicate can receive replies;
	// its Join must still detect the collision via the terminal node.
	if err := dup.Join(c.order[0]); err != ErrIDCollision {
		t.Fatalf("err = %v; want ErrIDCollision", err)
	}
}

func TestJoinSelfBootstrapRejected(t *testing.T) {
	n := New(id.NodeFromUint64(1), netsim.New(), Config{B: 4, L: 4}, nil, 1)
	if err := n.Join(n.ID()); err == nil {
		t.Fatal("joining via self must fail")
	}
}

func TestLeafSetChangeCallback(t *testing.T) {
	net := netsim.New()
	cfg := Config{B: 4, L: 4}
	rng := rand.New(rand.NewSource(12))
	a := New(randKey(rng), net, cfg, nil, 1)
	net.Register(a.ID(), topology.Point{}, a)
	a.Bootstrap()

	fired := 0
	a.OnLeafSetChange = func() { fired++ }

	b := New(randKey(rng), net, cfg, nil, 2)
	net.Register(b.ID(), topology.Point{X: 1}, b)
	if err := b.Join(a.ID()); err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("a's leaf-set callback did not fire when b joined")
	}
}

func TestDeliverUnknownMessage(t *testing.T) {
	n := New(id.NodeFromUint64(1), netsim.New(), Config{B: 4, L: 4}, nil, 1)
	if _, err := n.Deliver(id.NodeFromUint64(2), "bogus"); err == nil {
		t.Fatal("unknown message must error")
	}
}

func TestPingPong(t *testing.T) {
	n := New(id.NodeFromUint64(1), netsim.New(), Config{B: 4, L: 4}, nil, 1)
	// Before (re)joining, the node is off the overlay even though its
	// endpoint answers: pings are refused so a crashed predecessor's
	// stale entries get purged rather than kept alive.
	if _, err := n.Deliver(id.NodeFromUint64(2), &Ping{}); !errors.Is(err, ErrNotJoined) {
		t.Fatalf("ping before join: err = %v; want ErrNotJoined", err)
	}
	n.Bootstrap()
	res, err := n.Deliver(id.NodeFromUint64(2), &Ping{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.(*Pong); !ok {
		t.Fatalf("reply = %T; want *Pong", res)
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd leaf set size must panic")
		}
	}()
	New(id.NodeFromUint64(1), netsim.New(), Config{B: 4, L: 3}, nil, 1)
}

func TestTableRowsPopulated(t *testing.T) {
	c := buildCluster(t, 100, Config{B: 4, L: 16}, 13)
	// With 100 nodes and b=4, on average each node should have a healthy
	// row 0 (entries for most of the 15 other digit values).
	totalRow0 := 0
	for _, n := range c.nodes {
		row := n.TableRow(0)
		cnt := 0
		for _, e := range row {
			if !e.IsZero() {
				cnt++
			}
		}
		totalRow0 += cnt
	}
	avg := float64(totalRow0) / float64(len(c.nodes))
	if avg < 8 {
		t.Fatalf("average row-0 population %.1f too sparse", avg)
	}
}

func TestLocalityOfRoutes(t *testing.T) {
	// Pastry's locality: because each hop goes to a proximally close node
	// with a longer prefix, total route distance should be within a small
	// factor of the direct source-destination distance on average. The
	// paper reports ~1.5x for the real implementation; the emulation is
	// cruder, so assert a loose bound and log the measured stretch.
	c := buildCluster(t, 150, Config{B: 4, L: 16}, 14)
	var totDirect, totRoute float64
	for i := 0; i < 200; i++ {
		key := randKey(c.rng)
		src := c.randomAliveNode()
		_, path, err := routePath(src, key)
		if err != nil {
			t.Fatal(err)
		}
		dst := path[len(path)-1]
		if dst == src.ID() {
			continue
		}
		direct, _ := c.net.Proximity(src.ID(), dst)
		route := 0.0
		for j := 1; j < len(path); j++ {
			d, _ := c.net.Proximity(path[j-1], path[j])
			route += d
		}
		totDirect += direct
		totRoute += route
	}
	stretch := totRoute / totDirect
	t.Logf("route stretch = %.2f", stretch)
	if stretch > 8 {
		t.Fatalf("route stretch %.2f unreasonably high; locality heuristic broken", stretch)
	}
}

func BenchmarkRoute(b *testing.B) {
	c := buildCluster(b, 200, Config{B: 4, L: 16}, 15)
	keys := make([]id.Node, 512)
	for i := range keys {
		keys[i] = randKey(c.rng)
	}
	src := c.randomAliveNode()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := src.Route(keys[i%len(keys)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// leafBenchNode returns one node of a 100-node, l=32 network with keys
// that fall inside its leaf-set span, where a coordinator's queries do.
func leafBenchNode(b *testing.B) (*Node, []id.Node) {
	c := buildCluster(b, 100, Config{B: 4, L: 32}, 15)
	n := c.randomAliveNode()
	near := append(n.LeafSet(), n.ID())
	keys := make([]id.Node, 512)
	for i := range keys {
		keys[i] = near[c.rng.Intn(len(near))]
		c.rng.Read(keys[i][8:])
	}
	b.ResetTimer()
	b.ReportAllocs()
	return n, keys
}

var leafBenchSink int

func BenchmarkReplicaSet(b *testing.B) {
	n, keys := leafBenchNode(b)
	for i := 0; i < b.N; i++ {
		leafBenchSink += len(n.ReplicaSet(keys[i%len(keys)], 5))
	}
}

func BenchmarkLeafSet(b *testing.B) {
	n, _ := leafBenchNode(b)
	for i := 0; i < b.N; i++ {
		leafBenchSink += len(n.LeafSet())
	}
}

func BenchmarkIsAmongKClosest(b *testing.B) {
	n, keys := leafBenchNode(b)
	for i := 0; i < b.N; i++ {
		if n.IsAmongKClosest(keys[i%len(keys)], 5) {
			leafBenchSink++
		}
	}
}

func BenchmarkJoin(b *testing.B) {
	// One base cluster; every iteration joins one more node, so the
	// benchmark measures join cost on a growing (50+N)-node network.
	cfg := Config{B: 4, L: 16}
	c := buildCluster(b, 50, cfg, 99)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var nid id.Node
		c.rng.Read(nid[:])
		node := New(nid, c.net, cfg, nil, int64(i))
		c.net.Register(nid, topology.DefaultPlane.RandomPoint(c.rng), node)
		b.StartTimer()
		if err := node.Join(c.order[0]); err != nil {
			b.Fatal(err)
		}
	}
}
