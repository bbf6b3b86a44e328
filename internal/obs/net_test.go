package obs

import (
	"context"
	"testing"

	"past/internal/id"
	"past/internal/netsim"
	"past/internal/topology"
)

type echoEndpoint struct{}

func (echoEndpoint) Deliver(_ id.Node, msg any) (any, error) { return msg, nil }

// wrapper forwards to a netsim.Net; with Inner it is seen through, like
// chaos.Net, without it it hides what it wraps.
type opaque struct{ netsim.Net }
type seeThrough struct{ netsim.Net }

func (w seeThrough) Inner() netsim.Net { return w.Net }

// TestInstrumentNetTimesOnlyRealLatency: every RPC counts in msgs_out
// and a failed one in rpc_errors, but only a network that is not the
// emulator — here an opaque wrapper standing in for transport.TCP —
// reads the clock and fills the latency histogram.
func TestInstrumentNetTimesOnlyRealLatency(t *testing.T) {
	sim := netsim.New()
	a, b := id.NodeFromUint64(1), id.NodeFromUint64(2)
	sim.Register(a, topology.Point{}, echoEndpoint{})
	sim.Register(b, topology.Point{}, echoEndpoint{})
	for _, c := range []struct {
		name  string
		inner netsim.Net
		timed bool
	}{
		{"netsim", sim, false},
		{"chaos-style wrapper", seeThrough{sim}, false},
		{"instrumented twice", InstrumentNet(seeThrough{sim}, &NodeStats{}), false},
		{"opaque wrapper", opaque{sim}, true},
	} {
		var st NodeStats
		net := InstrumentNet(c.inner, &st)
		if _, err := net.Invoke(context.Background(), a, b, "ping"); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := net.Invoke(context.Background(), a, id.NodeFromUint64(3), "lost"); err == nil {
			t.Fatalf("%s: invoke to an unknown node succeeded", c.name)
		}
		snap := st.Snapshot()
		if snap.Get(CtrMsgsOut) != 2 || snap.Get(CtrRPCErrors) != 1 {
			t.Errorf("%s: msgs_out=%d rpc_errors=%d, want 2 and 1", c.name, snap.Get(CtrMsgsOut), snap.Get(CtrRPCErrors))
		}
		if want := map[bool]int64{true: 2}[c.timed]; snap.TotalRPCs() != want {
			t.Errorf("%s: latency histogram holds %d RPCs, want %d", c.name, snap.TotalRPCs(), want)
		}
	}
}
