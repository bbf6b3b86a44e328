package obs

import (
	"context"
	"time"

	"past/internal/id"
	"past/internal/netsim"
)

// InstrumentedNet wraps a netsim.Net and accounts every outgoing
// invoke — message count, failures and, where a call takes real time,
// RPC wall-clock latency — into a NodeStats registry. It changes no
// behavior: same calls, same errors, no RNG, so it can wrap the
// fault-injected chaos view without perturbing a seeded run.
type InstrumentedNet struct {
	inner netsim.Net
	stats *NodeStats
	// timed is false when inner bottoms out in the emulator: its calls
	// are synchronous function calls (chaos delays are virtual and
	// accounted by chaos.Core), so reading the clock twice per RPC would
	// cost more than the "latency" it measured, which nothing reads.
	timed bool
}

var _ netsim.Net = (*InstrumentedNet)(nil)

// InstrumentNet wraps inner so every outgoing invoke is accounted into
// stats. A nil stats returns inner unchanged. Whether RPCs are timed is
// decided here, once: not when inner is, or wraps, the emulator.
func InstrumentNet(inner netsim.Net, stats *NodeStats) netsim.Net {
	if stats == nil {
		return inner
	}
	return &InstrumentedNet{inner: inner, stats: stats, timed: !emulated(inner)}
}

// emulated reports whether net is the in-process emulator, seen through
// any number of wrappers that expose what they wrap with Inner
// (chaos.Net, InstrumentedNet).
func emulated(net netsim.Net) bool {
	for {
		switch v := net.(type) {
		case *netsim.Network:
			return true
		case interface{ Inner() netsim.Net }:
			net = v.Inner()
		default:
			return false
		}
	}
}

// Inner returns the wrapped network.
func (n *InstrumentedNet) Inner() netsim.Net { return n.inner }

// Invoke delivers through the wrapped network, timing the exchange on a
// network with real latency.
func (n *InstrumentedNet) Invoke(ctx context.Context, src, dst id.Node, msg any) (any, error) {
	n.stats.MsgsOut.Add(1)
	var start time.Time
	if n.timed {
		start = time.Now()
	}
	reply, err := n.inner.Invoke(ctx, src, dst, msg)
	if n.timed {
		n.stats.ObserveRPC(time.Since(start))
	}
	if err != nil {
		n.stats.RPCErrors.Add(1)
	}
	return reply, err
}

// Alive passes through.
func (n *InstrumentedNet) Alive(dst id.Node) bool { return n.inner.Alive(dst) }

// Proximity passes through.
func (n *InstrumentedNet) Proximity(a, b id.Node) (float64, bool) {
	return n.inner.Proximity(a, b)
}
