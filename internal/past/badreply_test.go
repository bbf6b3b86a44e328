package past

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"past/internal/ec"
	"past/internal/id"
	"past/internal/netsim"
	"past/internal/pastry"
	"past/internal/store"
	"past/internal/topology"
)

// badReplyNet answers the messages bad selects with reply instead of
// delivering them, once armed: a peer whose answer decodes to the wrong
// type (an ackMsg) or, like an empty TCP response frame, to nil.
type badReplyNet struct {
	netsim.Net
	armed bool
	bad   func(msg any) bool
	reply any
}

func (b *badReplyNet) Invoke(ctx context.Context, src, dst id.Node, msg any) (any, error) {
	if b.armed && b.bad(msg) {
		return b.reply, nil
	}
	return b.Net.Invoke(ctx, src, dst, msg)
}

// TestBadReplyFailsCleanly: a reply of the wrong type, or none, is a
// failed exchange with that peer — a diversion skips the candidate, a
// fragment placement moves on, a join returns an error — never a panic.
// Each case first succeeds with honest replies, so the path under test
// is the one that runs.
func TestBadReplyFailsCleanly(t *testing.T) {
	for _, reply := range []any{&ackMsg{}, nil} {
		name := fmt.Sprintf("%T", reply)
		t.Run("diversion/"+name, func(t *testing.T) {
			// tpri below any file's share of free space: every replica is
			// diverted, and every diversion polls free space.
			cfg := smallCfg()
			cfg.TPri = 1e-9
			c, arm := badReplyCluster(t, cfg, reply, func(msg any) bool { _, ok := msg.(*freeSpaceMsg); return ok })
			if res, err := c.Nodes[0].Insert(InsertSpec{Name: "honest", Size: 1024}); err != nil || !res.OK || res.Diverted != cfg.K {
				t.Fatalf("control insert: %+v, %v; want all %d replicas diverted", res, err, cfg.K)
			}
			arm()
			res, err := c.Nodes[0].Insert(InsertSpec{Name: "diverted", Size: 1024})
			if err != nil || res.OK || res.Attempts != cfg.MaxRetries+1 {
				t.Fatalf("insert with unreadable free-space replies: %+v, %v; want every attempt to fail in-band", res, err)
			}
		})
		t.Run("fragment store/"+name, func(t *testing.T) {
			cfg := smallCfg()
			cfg.ECMode = &ec.Params{Data: 4, Parity: 2}
			c, arm := badReplyCluster(t, cfg, reply, func(msg any) bool { _, ok := msg.(*storeFragMsg); return ok })
			if res, err := c.Nodes[0].Insert(InsertSpec{Name: "honest", Content: make([]byte, 8<<10)}); err != nil || !res.OK {
				t.Fatalf("control coded insert: %+v, %v", res, err)
			}
			arm()
			res, err := c.Nodes[0].Insert(InsertSpec{Name: "coded", Content: make([]byte, 8<<10)})
			if err != nil || res.OK {
				t.Fatalf("coded insert with unreadable fragment-store replies: %+v, %v; want an in-band failure", res, err)
			}
		})
		t.Run("join/"+name, func(t *testing.T) {
			c := testCluster(t, 8, smallCfg(), 1<<20, 5)
			joiner := id.NodeFromUint64(42)
			net := &badReplyNet{Net: c.Net, armed: true, reply: reply,
				bad: func(msg any) bool { _, ok := msg.(*pastry.StateRequest); return ok }}
			n := NewWithStore(joiner, net, smallCfg(), store.New(1<<20), 42)
			c.Net.Register(joiner, topology.Point{}, n)
			if err := n.Overlay().Join(c.Nodes[0].ID()); !errors.Is(err, netsim.ErrBadReply) {
				t.Fatalf("join through a bootstrap sending %s: %v; want ErrBadReply", name, err)
			}
		})
	}
}

// badReplyCluster builds a 16-node cluster whose nodes each talk through
// a badReplyNet; arm turns them all on.
func badReplyCluster(t *testing.T, cfg Config, reply any, bad func(any) bool) (*Cluster, func()) {
	t.Helper()
	var nets []*badReplyNet
	c, err := NewCluster(ClusterSpec{
		N: 16, Cfg: cfg, Seed: 3,
		Capacity: func(int, *rand.Rand) int64 { return 1 << 20 },
		WrapNet: func(_ id.Node, inner netsim.Net) netsim.Net {
			b := &badReplyNet{Net: inner, bad: bad, reply: reply}
			nets = append(nets, b)
			return b
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, func() {
		for _, b := range nets {
			b.armed = true
		}
	}
}
