package transport

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"past/internal/id"
	"past/internal/netsim"
	"past/internal/pastry"
	"past/internal/topology"
	"past/internal/wire"
)

// epFunc adapts a function to netsim.Endpoint.
type epFunc func(from id.Node, msg any) (any, error)

func (f epFunc) Deliver(from id.Node, msg any) (any, error) { return f(from, msg) }

// restartableServer is a stand-in for one pastd life: a transport bound
// to a fixed address with a pluggable endpoint. Kill() drops it the way
// SIGKILL does (sockets reset, nothing flushed); a new life is started
// at the same address, which is exactly what the cluster orchestrator's
// restart does.
type restartableServer struct {
	t    *testing.T
	id   id.Node
	addr string
	tr   *TCP
}

func startRestartable(t *testing.T, addr string, sid id.Node, ep netsim.Endpoint) *restartableServer {
	t.Helper()
	tr, err := New(sid, addr, topology.Point{})
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	tr.Serve(ep)
	return &restartableServer{t: t, id: sid, addr: tr.Addr(), tr: tr}
}

func (s *restartableServer) kill() {
	s.tr.Close()
}

func (s *restartableServer) restart(ep netsim.Endpoint) {
	s.t.Helper()
	// The replacement process can lose the port race briefly while the
	// kernel tears the old listener down; retry like a supervisor would.
	var err error
	for i := 0; i < 50; i++ {
		var tr *TCP
		tr, err = New(s.id, s.addr, topology.Point{})
		if err == nil {
			tr.Serve(ep)
			s.tr = tr
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.t.Fatalf("restart %s: %v", s.addr, err)
}

func echoEP() netsim.Endpoint {
	return epFunc(func(from id.Node, msg any) (any, error) { return msg, nil })
}

// TestInvokeAddrStaleConnAcrossRestart: a pooled InvokeAddr connection
// to a node that was killed and restarted at the same address must be
// detected stale and redialed — the caller sees a clean reply, not a
// spurious decode error.
func TestInvokeAddrStaleConnAcrossRestart(t *testing.T) {
	register()
	rng := rand.New(rand.NewSource(71))
	var sid, cid id.Node
	rng.Read(sid[:])
	rng.Read(cid[:])

	srv := startRestartable(t, "127.0.0.1:0", sid, echoEP())
	defer func() { srv.tr.Close() }()

	ct, err := New(cid, "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()

	if _, err := ct.InvokeAddr(srv.addr, &pastry.Ping{}); err != nil {
		t.Fatalf("first InvokeAddr: %v", err)
	}
	ct.mu.Lock()
	pooled := len(ct.idle[srv.addr])
	ct.mu.Unlock()
	if pooled != 1 {
		t.Fatalf("pooled %d addr connections; want 1", pooled)
	}

	// Kill and restart the server at the same address: the pooled
	// connection is now a dead socket.
	srv.kill()
	srv.restart(echoEP())

	reply, err := ct.InvokeAddr(srv.addr, &pastry.Ping{})
	if err != nil {
		t.Fatalf("InvokeAddr across restart must redial the stale conn: %v", err)
	}
	if _, ok := reply.(*pastry.Ping); !ok {
		t.Fatalf("unexpected reply %T", reply)
	}
	ct.mu.Lock()
	pooled = len(ct.idle[srv.addr])
	ct.mu.Unlock()
	if pooled != 1 {
		t.Fatalf("pool holds %d addr connections after retry; want only the fresh one", pooled)
	}
}

// TestSentinelsSurviveRestart: ErrOverloaded and ErrTimeout returned by
// the NEW life of a restarted node must still classify under errors.Is
// when the request rode the stale-conn retry path — the response's
// error code has to be honoured on the retried exchange too.
func TestSentinelsSurviveRestart(t *testing.T) {
	register()
	rng := rand.New(rand.NewSource(72))
	var sid, cid id.Node
	rng.Read(sid[:])
	rng.Read(cid[:])

	srv := startRestartable(t, "127.0.0.1:0", sid, echoEP())
	defer func() { srv.tr.Close() }()

	ct, err := New(cid, "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()

	// Warm the pool through both entry points: InvokeAddr, then Invoke
	// (after teaching the directory the server's address).
	if _, err := ct.InvokeAddr(srv.addr, &pastry.Ping{}); err != nil {
		t.Fatal(err)
	}
	ct.AddEntry(wire.DirEntry{ID: sid, Addr: srv.addr})
	if _, err := ct.Invoke(context.Background(), cid, sid, &pastry.Ping{}); err != nil {
		t.Fatal(err)
	}

	// The new life sheds everything.
	srv.kill()
	srv.restart(epFunc(func(from id.Node, msg any) (any, error) {
		return nil, netsim.ErrOverloaded
	}))

	_, err = ct.InvokeAddr(srv.addr, &pastry.Ping{})
	if !errors.Is(err, netsim.ErrOverloaded) {
		t.Fatalf("InvokeAddr across restart: got %v, want ErrOverloaded", err)
	}
	if err != nil && strings.Contains(err.Error(), "wire:") {
		t.Fatalf("spurious decode error leaked through: %v", err)
	}
	_, err = ct.Invoke(context.Background(), cid, sid, &pastry.Ping{})
	if !errors.Is(err, netsim.ErrOverloaded) {
		t.Fatalf("Invoke across restart: got %v, want ErrOverloaded", err)
	}

	// And a timeout sentinel from the newest life, for the taxonomy's
	// other retryable member.
	srv.kill()
	srv.restart(epFunc(func(from id.Node, msg any) (any, error) {
		return nil, netsim.ErrTimeout
	}))
	_, err = ct.InvokeAddr(srv.addr, &pastry.Ping{})
	if !errors.Is(err, netsim.ErrTimeout) {
		t.Fatalf("InvokeAddr timeout across restart: got %v, want ErrTimeout", err)
	}
}
