package daemon

import (
	"net"
	"strings"
	"testing"
	"time"

	"past/internal/past"
	"past/internal/store"
	"past/internal/topology"
	"past/internal/transport"
	"past/internal/wire"
)

func newTestNode(t *testing.T, seed int64) (*past.Node, *transport.TCP) {
	t.Helper()
	wire.RegisterWire()
	past.RegisterWire()
	nid := NodeIDFromSeed(seed)
	tr, err := transport.New(nid, "127.0.0.1:0", topology.Point{X: float64(seed), Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	cfg := past.DefaultConfig()
	cfg.K = 1
	node := past.NewWithStore(nid, tr, cfg, store.New(1<<20), seed)
	tr.Serve(node)
	return node, tr
}

// TestJoinWithRetryExhaustsBudget: nothing ever listens at the target,
// so the bounded budget is spent and the error names the address and
// attempt count instead of the old immediate fatal.
func TestJoinWithRetryExhaustsBudget(t *testing.T) {
	node, tr := newTestNode(t, 101)
	// Reserve a port and close it so nothing is listening there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	start := time.Now()
	err = joinWithRetry(tr, node, dead, 2, 5*time.Millisecond)
	if err == nil {
		t.Fatal("joinWithRetry succeeded against a dead address")
	}
	if !strings.Contains(err.Error(), dead) || !strings.Contains(err.Error(), "3 attempt(s)") {
		t.Fatalf("error %q does not name the address and attempt count", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("budget of 3 quick attempts took %v", time.Since(start))
	}
}

// TestJoinWithRetryBootstrapComesUpLate: the bootstrap node starts
// listening only after the joiner's first attempts have failed; the
// retry loop must ride over the gap and complete the join.
func TestJoinWithRetryBootstrapComesUpLate(t *testing.T) {
	joiner, jtr := newTestNode(t, 102)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bootAddr := ln.Addr().String()
	ln.Close()

	go func() {
		time.Sleep(300 * time.Millisecond)
		wire.RegisterWire()
		past.RegisterWire()
		nid := NodeIDFromSeed(103)
		tr, err := transport.New(nid, bootAddr, topology.Point{X: 1, Y: 1})
		if err != nil {
			return
		}
		cfg := past.DefaultConfig()
		cfg.K = 1
		boot := past.NewWithStore(nid, tr, cfg, store.New(1<<20), 103)
		tr.Serve(boot)
		boot.Overlay().Bootstrap()
	}()

	if err := joinWithRetry(jtr, joiner, bootAddr, 20, 50*time.Millisecond); err != nil {
		t.Fatalf("joinWithRetry with a late bootstrap: %v", err)
	}
	if !joiner.Overlay().Joined() {
		t.Fatal("joiner reports not joined after successful joinWithRetry")
	}
}
