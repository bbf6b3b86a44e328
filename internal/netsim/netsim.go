// Package netsim is the network emulation environment the experiments
// run on. The paper evaluated PAST with all 2250 nodes inside a single
// JVM, communication reduced to local invocation; netsim is the same
// idea: a registry of endpoints keyed by nodeId, message delivery by
// direct call, plus the bookkeeping a real network would make observable
// (message counts, per-node liveness, and the proximity metric between
// any two nodes).
//
// The routing layer (internal/pastry) and the storage layer
// (internal/past) talk to the network only through the small Net
// interface, so the identical node code also runs over the real TCP
// transport in internal/transport.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"past/internal/id"
	"past/internal/topology"
)

// Errors returned by message delivery. These are the error taxonomy the
// whole stack classifies failures with: every transport (emulated, fault
// injected, TCP) maps its failures onto these sentinels, so the routing
// and storage layers can decide uniformly whether an operation is worth
// retrying.
var (
	// ErrUnknownNode reports a destination that was never registered.
	ErrUnknownNode = errors.New("netsim: unknown node")
	// ErrNodeDown reports a destination that is currently failed.
	ErrNodeDown = errors.New("netsim: node down")
	// ErrTimeout reports a message that got no reply in time: an expired
	// context deadline, a socket deadline, or an injected message drop
	// (the fault injector's model of a lost message IS a timeout at the
	// sender). Unlike ErrNodeDown it carries no claim that the peer is
	// dead — only that this exchange failed.
	ErrTimeout = errors.New("netsim: timeout")
	// ErrOverloaded reports a request shed by a node's admission control
	// (internal/admit): the node is alive but refusing work because its
	// request queue is saturated. It is retryable — a different replica,
	// hop, or a later attempt may find capacity — and it is the signal
	// the routing layer reroutes around.
	ErrOverloaded = errors.New("netsim: node overloaded")
)

// Retryable reports whether err is a transient delivery failure that a
// different attempt (another hop, another replica, a later retry) could
// plausibly get past: a down, unknown, or overloaded node, or a
// timeout. Application errors and context cancellation (the caller gave
// up) are not retryable.
func Retryable(err error) bool {
	return errors.Is(err, ErrNodeDown) ||
		errors.Is(err, ErrUnknownNode) ||
		errors.Is(err, ErrTimeout) ||
		errors.Is(err, ErrOverloaded)
}

// CtxErr maps a context failure onto the delivery-error taxonomy: a
// deadline that expired is a timeout (retryable by a caller that still
// has budget); an explicit cancellation is passed through untouched so
// aborted requests are never retried.
func CtxErr(ctx context.Context) error {
	switch err := ctx.Err(); {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	default:
		return err
	}
}

// ErrBadReply reports a peer's reply of a type the caller did not ask
// for — over TCP, a mistyped or empty response frame decodes to any
// registered type, or to nil. Callers treat it like any other failed
// exchange with that peer; it is not retryable, since asking the same
// peer again would get the same answer.
var ErrBadReply = errors.New("netsim: unexpected reply")

// ReplyAs takes the result of an Invoke and returns the reply as a *T,
// or an error: Invoke's own, or ErrBadReply naming the type the peer
// sent and the type the caller wanted. Node code reads a peer's reply
// through it rather than asserting the type, so a bad reply is a failed
// exchange, never a panic.
//
//	sr, err := netsim.ReplyAs[storeReplicaReply](net.Invoke(ctx, src, dst, msg))
func ReplyAs[T any](reply any, err error) (*T, error) {
	if err != nil {
		return nil, err
	}
	r, ok := reply.(*T)
	if !ok || r == nil {
		return nil, fmt.Errorf("%w: got %T, want %T", ErrBadReply, reply, r)
	}
	return r, nil
}

// Endpoint is the receiving side of a node: it handles one message and
// returns a reply. Implementations must be safe for concurrent use if
// the network is driven from multiple goroutines.
type Endpoint interface {
	Deliver(from id.Node, msg any) (any, error)
}

// Net is the communication interface node code depends on. Both the
// in-process Network here and the TCP transport implement it.
type Net interface {
	// Invoke delivers msg from src to dst and returns dst's reply. The
	// context bounds the exchange: implementations must honor its
	// deadline (reporting expiry as ErrTimeout) and its cancellation.
	Invoke(ctx context.Context, src, dst id.Node, msg any) (any, error)
	// Alive reports whether dst is currently reachable.
	Alive(dst id.Node) bool
	// Proximity returns the scalar proximity metric between two nodes,
	// and false if either is unknown.
	Proximity(a, b id.Node) (float64, bool)
}

// entry is one registered node. Its endpoint and position are fixed for
// the entry's life (re-registering makes a new entry); only liveness
// changes, atomically, so Fail and Recover copy nothing.
type entry struct {
	ep    Endpoint
	pos   topology.Point
	alive atomic.Bool
}

// Network is the in-process emulated network.
//
// Delivery takes no lock: Invoke reads the endpoint table and the
// per-type counter table through atomic pointers to maps that are never
// written once published. The rare writers — Register, Remove, and the
// first delivery of a new message type — copy the table under mu and
// publish the copy. A delivery therefore costs two map reads and one
// counter increment on top of its handler.
type Network struct {
	mu     sync.Mutex // serialises table writers
	nodes  atomic.Pointer[map[id.Node]*entry]
	byType atomic.Pointer[map[reflect.Type]*atomic.Int64]
}

var _ Net = (*Network)(nil)

// New creates an empty emulated network.
func New() *Network {
	n := &Network{}
	n.nodes.Store(&map[id.Node]*entry{})
	n.byType.Store(&map[reflect.Type]*atomic.Int64{})
	return n
}

// table returns the current endpoint table; callers must not write it.
func (n *Network) table() map[id.Node]*entry { return *n.nodes.Load() }

// publish replaces *p with a copy that has edit applied: a reader keeps
// the map it loaded, which nobody writes again. Callers hold the
// Network's mu.
func publish[K comparable, V any](p *atomic.Pointer[map[K]V], edit func(map[K]V)) {
	next := maps.Clone(*p.Load())
	edit(next)
	p.Store(&next)
}

// Register adds a live node at the given position. Registering an
// existing id replaces its endpoint and position (a node re-joining
// after losing its disk does exactly this).
func (n *Network) Register(nid id.Node, pos topology.Point, ep Endpoint) {
	e := &entry{ep: ep, pos: pos}
	e.alive.Store(true)
	n.mu.Lock()
	defer n.mu.Unlock()
	publish(&n.nodes, func(t map[id.Node]*entry) { t[nid] = e })
}

// Fail marks a node unreachable; its state is retained so it can recover.
func (n *Network) Fail(nid id.Node) { n.setAlive(nid, false) }

// Recover marks a previously failed node reachable again.
func (n *Network) Recover(nid id.Node) { n.setAlive(nid, true) }

func (n *Network) setAlive(nid id.Node, alive bool) {
	if e, ok := n.table()[nid]; ok {
		e.alive.Store(alive)
	}
}

// Remove deletes a node entirely.
func (n *Network) Remove(nid id.Node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	publish(&n.nodes, func(t map[id.Node]*entry) { delete(t, nid) })
}

// Alive reports whether nid is registered and not failed.
func (n *Network) Alive(nid id.Node) bool {
	e, ok := n.table()[nid]
	return ok && e.alive.Load()
}

// Invoke delivers msg to dst and returns its reply. Messages to unknown
// or failed nodes fail with ErrUnknownNode or ErrNodeDown, which is how
// senders detect failures (the emulated analogue of a timeout). An
// already-expired or cancelled context fails the delivery up front; the
// emulation's zero-latency calls never expire mid-flight.
func (n *Network) Invoke(ctx context.Context, src, dst id.Node, msg any) (any, error) {
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	e, ok := n.table()[dst]
	if !ok {
		return nil, ErrUnknownNode
	}
	if !e.alive.Load() {
		return nil, ErrNodeDown
	}
	n.countType(msg)
	return e.ep.Deliver(src, msg)
}

// countType attributes the message to its concrete type, for overhead
// decomposition (e.g. how many of an insert's messages were free-space
// queries vs replica stores). It is the only count a delivery makes:
// Messages is the sum of these.
func (n *Network) countType(msg any) {
	t := reflect.TypeOf(msg)
	c, ok := (*n.byType.Load())[t]
	if !ok {
		c = n.addType(t)
	}
	c.Add(1)
}

// addType returns t's counter, publishing a table that has one.
func (n *Network) addType(t reflect.Type) *atomic.Int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c, ok := (*n.byType.Load())[t]; ok {
		return c
	}
	c := new(atomic.Int64)
	publish(&n.byType, func(m map[reflect.Type]*atomic.Int64) { m[t] = c })
	return c
}

// MessagesByType returns a snapshot of per-message-type delivery counts,
// keyed by the concrete Go type name (as fmt's %T prints it).
func (n *Network) MessagesByType() map[string]int64 {
	out := make(map[string]int64)
	for t, c := range *n.byType.Load() {
		out[fmt.Sprint(t)] += c.Load()
	}
	return out
}

// Proximity returns the emulated proximity metric (Euclidean plane
// distance) between two registered nodes.
func (n *Network) Proximity(a, b id.Node) (float64, bool) {
	t := n.table()
	ea, oka := t[a]
	eb, okb := t[b]
	if !oka || !okb {
		return 0, false
	}
	return topology.Distance(ea.pos, eb.pos), true
}

// Position returns a node's plane coordinates.
func (n *Network) Position(nid id.Node) (topology.Point, bool) {
	e, ok := n.table()[nid]
	if !ok {
		return topology.Point{}, false
	}
	return e.pos, true
}

// Nodes returns all registered nodeIds (live and failed) in ascending
// order, for deterministic iteration.
func (n *Network) Nodes() []id.Node {
	t := n.table()
	out := make([]id.Node, 0, len(t))
	for nid := range t {
		out = append(out, nid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// AliveNodes returns the live nodeIds in ascending order.
func (n *Network) AliveNodes() []id.Node {
	t := n.table()
	out := make([]id.Node, 0, len(t))
	for nid, e := range t {
		if e.alive.Load() {
			out = append(out, nid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Messages returns the total number of messages delivered: the sum of
// the per-type counts.
func (n *Network) Messages() int64 {
	var total int64
	for _, c := range *n.byType.Load() {
		total += c.Load()
	}
	return total
}
