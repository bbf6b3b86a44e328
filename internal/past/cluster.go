package past

import (
	"fmt"
	"math"
	"math/rand"

	"past/internal/chaos"
	"past/internal/id"
	"past/internal/netsim"
	"past/internal/store"
	"past/internal/topology"
)

// Cluster is an emulated PAST network: N nodes in one process, exactly
// as the paper's evaluation ran 2250 nodes in one JVM. It is the
// substrate for the trace-driven experiments, the integration tests, and
// the examples.
type Cluster struct {
	Net   *netsim.Network
	Nodes []*Node
	ByID  map[id.Node]*Node

	rng *rand.Rand
}

// ClusterSpec describes a cluster to build.
type ClusterSpec struct {
	// N is the number of nodes.
	N int
	// Cfg is the PAST configuration shared by all nodes.
	Cfg Config
	// Capacity returns the advertised storage capacity of node i in
	// bytes. Required.
	Capacity func(i int, r *rand.Rand) int64
	// Seed makes the cluster deterministic.
	Seed int64
	// WrapNet, if set, wraps the network each node communicates
	// through — the fault-injection hook (internal/chaos). Nodes are
	// still registered on the raw Network; only their outgoing view is
	// wrapped. Called once per node in build order.
	WrapNet func(nid id.Node, inner netsim.Net) netsim.Net
	// PerNode, if set, derives node i's configuration from the shared
	// Cfg — the hook for per-node state such as a cache engine's flash
	// directory. Called once per node in build order.
	PerNode func(i int, cfg Config) Config
}

// NewCluster builds the network by sequential joins, each new node
// bootstrapping from the proximally closest existing node.
func NewCluster(spec ClusterSpec) (*Cluster, error) {
	if spec.N <= 0 {
		return nil, fmt.Errorf("past: cluster needs N > 0")
	}
	if spec.Capacity == nil {
		return nil, fmt.Errorf("past: cluster needs a Capacity function")
	}
	c := &Cluster{
		Net:  netsim.New(),
		ByID: make(map[id.Node]*Node, spec.N),
		rng:  rand.New(rand.NewSource(spec.Seed)),
	}
	positions := topology.DefaultPlane.Uniform(c.rng, spec.N)

	for i := 0; i < spec.N; i++ {
		var nid id.Node
		c.rng.Read(nid[:])
		if _, dup := c.ByID[nid]; dup {
			return nil, fmt.Errorf("past: nodeId collision while building cluster")
		}
		var nnet netsim.Net = c.Net
		if spec.WrapNet != nil {
			nnet = spec.WrapNet(nid, c.Net)
		}
		ncfg := spec.Cfg
		if spec.PerNode != nil {
			ncfg = spec.PerNode(i, ncfg)
		}
		node := NewWithStore(nid, nnet, ncfg, store.New(spec.Capacity(i, c.rng)), c.rng.Int63())
		c.Net.Register(nid, positions[i], node)
		if i == 0 {
			node.Overlay().Bootstrap()
		} else {
			boot := c.closestExisting(positions[i])
			if err := node.Overlay().Join(boot); err != nil {
				return nil, fmt.Errorf("past: join node %d: %w", i, err)
			}
		}
		c.Nodes = append(c.Nodes, node)
		c.ByID[nid] = node
	}
	return c, nil
}

func (c *Cluster) closestExisting(pos topology.Point) id.Node {
	best := id.Node{}
	bestD := math.Inf(1)
	for nid := range c.ByID {
		if !c.Net.Alive(nid) {
			continue
		}
		p, _ := c.Net.Position(nid)
		if d := topology.Distance(pos, p); d < bestD {
			best, bestD = nid, d
		}
	}
	return best
}

// TotalCapacity returns the aggregate advertised capacity of all nodes.
func (c *Cluster) TotalCapacity() int64 {
	var sum int64
	for _, n := range c.Nodes {
		sum += n.Capacity()
	}
	return sum
}

// StoredBytes returns the aggregate replica bytes across live nodes.
func (c *Cluster) StoredBytes() int64 {
	var sum int64
	for _, n := range c.Nodes {
		sum += n.StoredBytes()
	}
	return sum
}

// FragBytes returns the aggregate erasure-coded fragment bytes
// (ec_fragment_bytes) across all nodes.
func (c *Cluster) FragBytes() int64 {
	var sum int64
	for _, n := range c.Nodes {
		sum += n.FragBytes()
	}
	return sum
}

// Utilization returns global storage utilization in [0, 1].
func (c *Cluster) Utilization() float64 {
	tc := c.TotalCapacity()
	if tc == 0 {
		return 0
	}
	return float64(c.StoredBytes()) / float64(tc)
}

// RandomAliveNode returns a uniformly random live node.
func (c *Cluster) RandomAliveNode() *Node {
	alive := c.Net.AliveNodes()
	return c.ByID[alive[c.rng.Intn(len(alive))]]
}

// Fail marks a node failed (it keeps its disk contents for recovery).
func (c *Cluster) Fail(nid id.Node) { c.Net.Fail(nid) }

// Recover brings a failed node back; the node itself must Rejoin.
func (c *Cluster) Recover(nid id.Node) { c.Net.Recover(nid) }

// Maintain runs one keep-alive round on every live node, the emulated
// analogue of the periodic leaf-set keep-alives. Two rounds after a
// batch of failures restore all leaf sets.
func (c *Cluster) Maintain() {
	for _, nid := range c.Net.AliveNodes() {
		c.ByID[nid].Overlay().CheckLeafSet()
	}
}

// MaintainAll runs a keep-alive round and then forces a replica-
// maintenance (anti-entropy) pass on every live node. The forced pass
// matters under message loss: the change-triggered maintenance can be
// starved when its RPCs are dropped, and only a periodic re-scan
// re-establishes the k-replica invariant.
func (c *Cluster) MaintainAll() {
	c.Maintain()
	for _, nid := range c.Net.AliveNodes() {
		c.ByID[nid].Maintain()
	}
}

// Alive reports whether a node is currently up.
func (c *Cluster) Alive(nid id.Node) bool { return c.Net.Alive(nid) }

// Census reports every node's holds of files, in ascending nodeId
// order: the invariant checker's view of the cluster. Failed nodes are
// in it, marked not alive, with the holds their disks still keep.
func (c *Cluster) Census(files []id.File) *chaos.Census {
	cen := &chaos.Census{Files: files}
	for _, nid := range c.Net.Nodes() {
		if n, ok := c.ByID[nid]; ok {
			cen.Nodes = append(cen.Nodes, chaos.NodeHolds{ID: nid, Alive: c.Net.Alive(nid), Holds: n.Holds(files)})
		}
	}
	return cen
}

// GlobalClosest returns the k live nodes numerically closest to key, by
// brute force — ground truth for placement checks.
func (c *Cluster) GlobalClosest(key id.Node, k int) []id.Node {
	return chaos.Closest(key, c.Net.AliveNodes(), k)
}
