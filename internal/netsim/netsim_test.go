package netsim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"past/internal/id"
	"past/internal/topology"
)

type echo struct{ seen []any }

func (e *echo) Deliver(from id.Node, msg any) (any, error) {
	e.seen = append(e.seen, msg)
	return msg, nil
}

type probe struct{ n int }

func TestInvoke(t *testing.T) {
	n := New()
	a, b := id.NodeFromUint64(1), id.NodeFromUint64(2)
	eb := &echo{}
	n.Register(a, topology.Point{}, &echo{})
	n.Register(b, topology.Point{X: 3, Y: 4}, eb)

	reply, err := n.Invoke(context.Background(), a, b, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if reply != "hello" || len(eb.seen) != 1 {
		t.Fatalf("reply = %v, seen = %v", reply, eb.seen)
	}
	if n.Messages() != 1 {
		t.Fatalf("messages = %d", n.Messages())
	}
}

func TestInvokeUnknownAndDown(t *testing.T) {
	n := New()
	a, b := id.NodeFromUint64(1), id.NodeFromUint64(2)
	n.Register(a, topology.Point{}, &echo{})

	if _, err := n.Invoke(context.Background(), a, b, "x"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v; want ErrUnknownNode", err)
	}
	n.Register(b, topology.Point{}, &echo{})
	n.Fail(b)
	if _, err := n.Invoke(context.Background(), a, b, "x"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v; want ErrNodeDown", err)
	}
	if n.Alive(b) {
		t.Fatal("failed node reported alive")
	}
	n.Recover(b)
	if !n.Alive(b) {
		t.Fatal("recovered node reported down")
	}
	if _, err := n.Invoke(context.Background(), a, b, "x"); err != nil {
		t.Fatal(err)
	}
}

func TestRemove(t *testing.T) {
	n := New()
	a := id.NodeFromUint64(1)
	n.Register(a, topology.Point{}, &echo{})
	n.Remove(a)
	if n.Alive(a) || len(n.table()) != 0 {
		t.Fatal("removed node still present")
	}
}

func TestProximity(t *testing.T) {
	n := New()
	a, b := id.NodeFromUint64(1), id.NodeFromUint64(2)
	n.Register(a, topology.Point{X: 0, Y: 0}, &echo{})
	n.Register(b, topology.Point{X: 3, Y: 4}, &echo{})
	d, ok := n.Proximity(a, b)
	if !ok || d != 5 {
		t.Fatalf("proximity = %g,%v; want 5,true", d, ok)
	}
	if _, ok := n.Proximity(a, id.NodeFromUint64(9)); ok {
		t.Fatal("proximity to unknown node must report false")
	}
	if p, ok := n.Position(b); !ok || p.X != 3 {
		t.Fatal("position lookup wrong")
	}
}

func TestNodesSortedAndAlive(t *testing.T) {
	n := New()
	for _, v := range []uint64{5, 1, 3} {
		n.Register(id.NodeFromUint64(v), topology.Point{}, &echo{})
	}
	nodes := n.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("len = %d", len(nodes))
	}
	for i := 1; i < len(nodes); i++ {
		if !nodes[i-1].Less(nodes[i]) {
			t.Fatal("Nodes not sorted")
		}
	}
	n.Fail(id.NodeFromUint64(3))
	alive := n.AliveNodes()
	if len(alive) != 2 {
		t.Fatalf("alive = %d; want 2", len(alive))
	}
}

func TestReRegisterReplaces(t *testing.T) {
	n := New()
	a, b := id.NodeFromUint64(1), id.NodeFromUint64(2)
	n.Register(a, topology.Point{}, &echo{})
	first := &echo{}
	n.Register(b, topology.Point{}, first)
	second := &echo{}
	n.Register(b, topology.Point{X: 1}, second)
	if _, err := n.Invoke(context.Background(), a, b, "x"); err != nil {
		t.Fatal(err)
	}
	if len(first.seen) != 0 || len(second.seen) != 1 {
		t.Fatal("re-registration did not replace endpoint")
	}
}

func TestMessagesByType(t *testing.T) {
	n := New()
	a, b := id.NodeFromUint64(1), id.NodeFromUint64(2)
	n.Register(a, topology.Point{}, &echo{})
	n.Register(b, topology.Point{}, &echo{})
	if _, err := n.Invoke(context.Background(), a, b, "str"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Invoke(context.Background(), a, b, "str2"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Invoke(context.Background(), a, b, probe{n: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Invoke(context.Background(), a, b, &probe{n: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Invoke(context.Background(), a, b, nil); err != nil {
		t.Fatal(err)
	}
	// Keys are the names fmt's %T gives the message values.
	counts := n.MessagesByType()
	want := map[string]int64{"string": 2, "netsim.probe": 1, "*netsim.probe": 1, "<nil>": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("type counts = %v; want %v", counts, want)
	}
}

func TestInvokeAgainstFailedNode(t *testing.T) {
	n := New()
	a, b := id.NodeFromUint64(1), id.NodeFromUint64(2)
	eb := &echo{}
	n.Register(a, topology.Point{}, &echo{})
	n.Register(b, topology.Point{}, eb)
	n.Fail(b)

	before := n.Messages()
	if _, err := n.Invoke(context.Background(), a, b, "x"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("invoke to failed node: %v; want ErrNodeDown", err)
	}
	if len(eb.seen) != 0 {
		t.Fatal("failed node must not observe the message")
	}
	if n.Messages() != before {
		t.Fatal("a rejected invoke must not count as a delivered message")
	}
	// A failed node can still originate messages: in a real deployment
	// "failed" means unreachable to peers, not necessarily halted, and
	// the driver (not the network) decides when a node stops acting.
	if _, err := n.Invoke(context.Background(), b, a, "x"); err != nil {
		t.Fatalf("invoke from failed node: %v", err)
	}
}

func TestRecoverAfterRemoveIsNoOp(t *testing.T) {
	n := New()
	a, b := id.NodeFromUint64(1), id.NodeFromUint64(2)
	n.Register(a, topology.Point{}, &echo{})
	n.Register(b, topology.Point{}, &echo{})
	n.Remove(b)
	n.Recover(b) // must NOT resurrect a removed node
	if n.Alive(b) {
		t.Fatal("recover after remove resurrected the node")
	}
	if _, err := n.Invoke(context.Background(), a, b, "x"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("invoke after remove+recover: %v; want ErrUnknownNode", err)
	}
	if got := len(n.table()); got != 1 {
		t.Fatalf("Len() = %d; want 1", got)
	}
	// Recover of a never-registered id is equally inert.
	n.Recover(id.NodeFromUint64(99))
	if n.Alive(id.NodeFromUint64(99)) {
		t.Fatal("recover invented an unregistered node")
	}
}

func TestDoubleFailAndRecoverIdempotent(t *testing.T) {
	n := New()
	a, b := id.NodeFromUint64(1), id.NodeFromUint64(2)
	eb := &echo{}
	n.Register(a, topology.Point{}, &echo{})
	n.Register(b, topology.Point{}, eb)

	n.Fail(b)
	n.Fail(b) // second fail must not corrupt state
	if n.Alive(b) {
		t.Fatal("node alive after double fail")
	}
	if _, err := n.Invoke(context.Background(), a, b, "x"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("invoke after double fail: %v", err)
	}
	n.Recover(b)
	if !n.Alive(b) {
		t.Fatal("node dead after recover")
	}
	if _, err := n.Invoke(context.Background(), a, b, "x"); err != nil || len(eb.seen) != 1 {
		t.Fatalf("invoke after recover: %v (seen %d)", err, len(eb.seen))
	}
	n.Recover(b) // recover of a live node is a no-op too
	if !n.Alive(b) {
		t.Fatal("recover of a live node killed it")
	}
	// Fail after remove must not re-create the entry.
	n.Remove(b)
	n.Fail(b)
	if got := len(n.table()); got != 1 {
		t.Fatalf("Len() = %d after fail-of-removed; want 1", got)
	}
}

func TestReplyAs(t *testing.T) {
	want := &probe{n: 7}
	if got, err := ReplyAs[probe](want, nil); err != nil || got != want {
		t.Fatalf("ReplyAs(*probe) = %v, %v; want the reply itself", got, err)
	}
	if _, err := ReplyAs[probe](nil, ErrNodeDown); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Invoke's error must pass through, got %v", err)
	}
	// A reply of another type, an untyped nil (what an empty TCP frame
	// decodes to) and a typed nil all fail without panicking, naming
	// what came and what was wanted.
	for _, bad := range []any{"str", probe{n: 1}, nil, (*probe)(nil)} {
		got, err := ReplyAs[probe](bad, nil)
		if got != nil || !errors.Is(err, ErrBadReply) || Retryable(err) {
			t.Fatalf("ReplyAs(%T) = %v, %v; want nil and a non-retryable ErrBadReply", bad, got, err)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("got %T", bad)) || !strings.Contains(msg, "want *netsim.probe") {
			t.Fatalf("error %q must name both types", msg)
		}
	}
}

// counter is a concurrency-safe endpoint that counts what it is sent.
type counter struct{ n atomic.Int64 }

func (c *counter) Deliver(from id.Node, msg any) (any, error) {
	c.n.Add(1)
	return msg, nil
}

// TestInvokeDuringChurn drives deliveries from several goroutines while
// nodes are registered, failed, recovered and removed under them: run
// with -race, it checks that lock-free delivery only ever reads a
// published table. Every delivery that succeeds is counted, once, by
// both the endpoint and the network.
func TestInvokeDuringChurn(t *testing.T) {
	n := New()
	const stable, churned = 8, 8
	ep := &counter{}
	for i := 0; i < stable; i++ {
		n.Register(id.NodeFromUint64(uint64(i)), topology.Point{X: float64(i)}, ep)
	}
	// The churner runs until every sender has made its deliveries.
	stop, churnDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(churnDone)
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			nid := id.NodeFromUint64(uint64(stable + round%churned))
			switch round % 4 {
			case 0:
				n.Register(nid, topology.Point{Y: float64(round)}, ep)
			case 1:
				n.Fail(nid)
			case 2:
				n.Recover(nid)
			case 3:
				n.Remove(nid)
			}
			n.AliveNodes()
		}
	}()
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			msgs := []any{"s", &probe{}, probe{}}
			for i := 0; i < 5000; i++ {
				dst := id.NodeFromUint64(uint64((g + i) % (stable + churned)))
				_, err := n.Invoke(context.Background(), id.NodeFromUint64(0), dst, msgs[i%len(msgs)])
				switch {
				case err == nil:
					delivered.Add(1)
				case !errors.Is(err, ErrUnknownNode) && !errors.Is(err, ErrNodeDown):
					t.Errorf("invoke: %v", err)
					return
				}
				n.Alive(dst)
				n.Proximity(id.NodeFromUint64(0), dst)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-churnDone

	if delivered.Load() == 0 {
		t.Fatal("no delivery succeeded")
	}
	if got := n.Messages(); got != delivered.Load() || ep.n.Load() != got {
		t.Fatalf("Messages() = %d, endpoint saw %d, senders counted %d", got, ep.n.Load(), delivered.Load())
	}
	var byType int64
	for _, c := range n.MessagesByType() {
		byType += c
	}
	if byType != n.Messages() {
		t.Fatalf("MessagesByType sums to %d, Messages() = %d", byType, n.Messages())
	}
	for i := 0; i < stable; i++ {
		if !n.Alive(id.NodeFromUint64(uint64(i))) {
			t.Fatalf("stable node %d lost", i)
		}
	}
}
