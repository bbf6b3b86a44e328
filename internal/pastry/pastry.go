// Package pastry implements the Pastry peer-to-peer routing substrate
// that PAST is layered on (Rowstron & Druschel, Middleware 2001, as
// summarized in section 2.1 of the PAST paper).
//
// Every node keeps three pieces of state:
//
//   - a routing table with ceil(log_2^b N) populated rows of 2^b-1
//     entries; the entries in row n refer to nodes sharing the first n
//     digits with the present node but differing in digit n+1, chosen to
//     be close under the proximity metric;
//   - a leaf set: the l/2 numerically closest larger and l/2 numerically
//     closest smaller nodeIds;
//   - a neighborhood set of nodes close under the proximity metric, used
//     during node addition.
//
// In each routing step a message is forwarded to a node whose nodeId
// shares a prefix with the key at least one digit longer than the present
// node's, or failing that, to a node sharing an equally long prefix but
// numerically closer to the key. Routing therefore terminates in
// O(log_2^b N) hops at the live node with nodeId numerically closest to
// the key.
//
// Routing is recursive: each node picks the next hop and invokes it
// directly, so identical node code runs over the in-process emulation
// (internal/netsim) and the TCP transport (internal/transport).
package pastry

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"past/internal/id"
	"past/internal/netsim"
)

// Config carries the Pastry protocol parameters.
type Config struct {
	// B is the number of bits per digit (the paper's b, typically 4).
	B int
	// L is the leaf set size (the paper's l, typically 32). Must be
	// even. The neighborhood set has l members too.
	L int
	// RandomizeP is the probability that a routing step forwards to a
	// random valid candidate instead of the best one. Randomized routing
	// defeats malicious nodes that repeatedly swallow messages on a
	// deterministic path (section 2.3 of the PAST paper). Zero disables.
	RandomizeP float64
	// HopTimeout, when positive, bounds each forwarding RPC (on top of
	// any request-level deadline), so one silent next hop costs a bounded
	// wait before the route tries an alternate. Zero leaves per-hop RPCs
	// bounded only by the request context, which is right for the
	// in-process emulation where calls cannot hang.
	HopTimeout time.Duration
	// FailFast disables per-hop reroute: a failed next-hop RPC aborts
	// the route immediately instead of trying alternates. This restores
	// the pre-resilience baseline and exists for the chaos soak's
	// layer-off comparison and for ablations.
	FailFast bool
}

// DefaultConfig returns the paper's standard parameters: b=4, l=32.
func DefaultConfig() Config { return Config{B: 4, L: 32} }

func (c Config) withDefaults() Config {
	if c.B == 0 {
		c.B = 4
	}
	if c.L == 0 {
		c.L = 32
	}
	if c.L%2 != 0 {
		panic(fmt.Sprintf("pastry: leaf set size %d must be even", c.L))
	}
	return c
}

// Application is the upcall interface Pastry exposes to the layer above
// (PAST). It mirrors the common Pastry API: Forward fires at every node a
// routed message visits and may consume the message; Deliver fires at the
// node with nodeId numerically closest to the key; Backward fires on the
// path nodes, in reverse order, as the reply returns toward the origin.
type Application interface {
	Forward(key id.Node, msg any) (handled bool, reply any, err error)
	Deliver(key id.Node, msg any) (reply any, err error)
	Backward(key id.Node, msg, reply any)
}

// NopApplication ignores every upcall; useful for routing-only nodes.
type NopApplication struct{}

// Forward never consumes a message.
func (NopApplication) Forward(id.Node, any) (bool, any, error) { return false, nil, nil }

// Deliver returns a nil reply.
func (NopApplication) Deliver(id.Node, any) (any, error) { return nil, nil }

// Backward does nothing.
func (NopApplication) Backward(id.Node, any, any) {}

// Node is one Pastry node. All exported methods are safe for concurrent
// use. A Node must be registered as (or wrapped by) the netsim endpoint
// for its nodeId before Join is called.
type Node struct {
	cfg  Config
	self id.Node
	net  netsim.Net
	app  Application
	// hopLimit bounds route length as a defense against state-corruption
	// bugs: 4 hops per digit plus 2 per leaf-set member.
	hopLimit int

	mu     sync.Mutex
	rows   [][]id.Node // routing table: rows[digit][value], zero = empty
	leafLo []id.Node   // counter-clockwise (numerically smaller), closest first
	leafHi []id.Node   // clockwise (numerically larger), closest first
	nbrs   []id.Node   // neighborhood set, proximally closest first
	rng    *rand.Rand
	// joined is read on every message the node receives, so it takes
	// no lock.
	joined atomic.Bool

	reroutes     atomic.Int64
	leafRepairs  atomic.Int64
	overloadHops atomic.Int64

	// OnLeafSetChange, if set, is called (without the node lock held)
	// after any mutation of the leaf set. PAST uses it to re-establish
	// the k-replica invariant.
	OnLeafSetChange func()
}

// New creates a node with the given identifier. app may be nil, in which
// case routing works but all payloads are delivered to a NopApplication.
func New(self id.Node, net netsim.Net, cfg Config, app Application, seed int64) *Node {
	cfg = cfg.withDefaults()
	if app == nil {
		app = NopApplication{}
	}
	n := &Node{
		cfg:  cfg,
		self: self,
		net:  net,
		app:  app,
		rng:  rand.New(rand.NewSource(seed)),
	}
	n.rows = make([][]id.Node, id.NumDigits(cfg.B))
	for i := range n.rows {
		n.rows[i] = make([]id.Node, 1<<cfg.B)
	}
	n.hopLimit = 4*len(n.rows) + 2*cfg.L
	return n
}

// ID returns the node's 128-bit identifier.
func (n *Node) ID() id.Node { return n.self }

// Config returns the node's protocol parameters.
func (n *Node) Config() Config { return n.cfg }

// Joined reports whether the node has completed Bootstrap or Join.
func (n *Node) Joined() bool { return n.joined.Load() }

// Bootstrap initializes the very first node of a network.
func (n *Node) Bootstrap() { n.joined.Store(true) }

// Reroutes returns how many next hops this node has presumed failed and
// routed around since creation.
func (n *Node) Reroutes() int64 { return n.reroutes.Load() }

// LeafRepairs returns how many CheckLeafSet rounds actually changed the
// leaf set (dead members dropped or missing neighbors re-learned).
func (n *Node) LeafRepairs() int64 { return n.leafRepairs.Load() }

// OverloadHops returns how many next hops answered ErrOverloaded and
// were routed around (without being evicted — an overloaded node is
// alive).
func (n *Node) OverloadHops() int64 { return n.overloadHops.Load() }

// notifyLeafChange invokes the leaf-set callback outside the lock.
func (n *Node) notifyLeafChange() {
	if cb := n.OnLeafSetChange; cb != nil {
		cb()
	}
}
