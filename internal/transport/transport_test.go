package transport

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"errors"

	"past/internal/admit"
	"past/internal/cache"
	"past/internal/ec"
	"past/internal/id"
	"past/internal/logstore"
	"past/internal/netsim"
	"past/internal/obs"
	"past/internal/past"
	"past/internal/pastry"
	"past/internal/store"
	"past/internal/topology"
	"past/internal/wire"
)

var registerOnce sync.Once

func register() {
	registerOnce.Do(func() {
		wire.RegisterWire()
		past.RegisterWire()
	})
}

// tcpNode is one PAST node served over a loopback TCP socket.
type tcpNode struct {
	t    *TCP
	node *past.Node
}

func startNode(t *testing.T, rng *rand.Rand, cfg past.Config, capacity int64) *tcpNode {
	t.Helper()
	return startNodeOn(t, rng, cfg, store.New(capacity))
}

// startNodeOn is startNode over a given storage backend.
func startNodeOn(t *testing.T, rng *rand.Rand, cfg past.Config, st store.Backend) *tcpNode {
	t.Helper()
	var nid id.Node
	rng.Read(nid[:])
	pos := topology.DefaultPlane.RandomPoint(rng)
	tr, err := New(nid, "127.0.0.1:0", pos)
	if err != nil {
		t.Fatal(err)
	}
	n := past.NewWithStore(nid, tr, cfg, st, rng.Int63())
	tr.Serve(n)
	return &tcpNode{t: tr, node: n}
}

func buildTCPCluster(t *testing.T, n int, seed int64) []*tcpNode {
	t.Helper()
	return buildFleet(t, n, seed, fleetConfig(), func() store.Backend { return store.New(1 << 22) })
}

// fleetConfig is the configuration of a small loopback fleet: l = 8,
// k = 3, the default GD-S cache.
func fleetConfig() past.Config {
	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 8}
	cfg.K = 3
	return cfg
}

// buildFleet starts n nodes with cfg, each on a backend of its own, and
// joins them into one overlay over loopback TCP.
func buildFleet(t *testing.T, n int, seed int64, cfg past.Config, backend func() store.Backend) []*tcpNode {
	t.Helper()
	register()
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]*tcpNode, 0, n)
	first := startNodeOn(t, rng, cfg, backend())
	first.node.Overlay().Bootstrap()
	nodes = append(nodes, first)
	for i := 1; i < n; i++ {
		nd := startNodeOn(t, rng, cfg, backend())
		bootID, err := nd.t.Bootstrap(nodes[0].t.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.node.Overlay().Join(bootID); err != nil {
			t.Fatalf("join node %d over TCP: %v", i, err)
		}
		nodes = append(nodes, nd)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.t.Close()
		}
	})
	return nodes
}

func TestTCPInsertLookupReclaim(t *testing.T) {
	nodes := buildTCPCluster(t, 8, 1)
	client := nodes[3].node
	content := []byte("bytes that crossed real sockets")

	res, err := client.Insert(past.InsertSpec{Name: "tcp-file", Content: content})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Stored != 3 {
		t.Fatalf("insert over TCP: %+v", res)
	}

	got, err := nodes[6].node.Lookup(res.FileID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Found || !bytes.Equal(got.Content, content) {
		t.Fatalf("lookup over TCP: %+v", got)
	}

	rr, err := nodes[1].node.Reclaim(res.FileID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Found {
		t.Fatal("reclaim over TCP found nothing")
	}
}

func TestTCPClientRPC(t *testing.T) {
	nodes := buildTCPCluster(t, 6, 2)
	// A pure client (not part of the overlay) drives a node via the
	// client RPCs, exactly what cmd/pastctl does.
	addr := nodes[2].t.Addr()
	var cid id.Node
	rand.New(rand.NewSource(99)).Read(cid[:])
	ct, err := New(cid, "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()

	reply, err := ct.InvokeAddr(addr, &past.ClientInsert{Name: "rpc-file", Content: []byte("hello rpc")})
	if err != nil {
		t.Fatal(err)
	}
	ir := reply.(*past.ClientInsertReply)
	if !ir.OK {
		t.Fatalf("client insert: %+v", ir)
	}

	reply, err = ct.InvokeAddr(addr, &past.ClientLookup{File: ir.FileID})
	if err != nil {
		t.Fatal(err)
	}
	lr := reply.(*past.ClientLookupReply)
	if !lr.Found || string(lr.Content) != "hello rpc" {
		t.Fatalf("client lookup: %+v", lr)
	}

	reply, err = ct.InvokeAddr(addr, &past.ClientReclaim{File: ir.FileID})
	if err != nil {
		t.Fatal(err)
	}
	if rr := reply.(*past.ClientReclaimReply); !rr.Found {
		t.Fatal("client reclaim found nothing")
	}
}

func TestTCPNodeFailureDetected(t *testing.T) {
	nodes := buildTCPCluster(t, 8, 3)
	client := nodes[0].node
	res, err := client.Insert(past.InsertSpec{Name: "survivor", Content: []byte("data")})
	if err != nil || !res.OK {
		t.Fatalf("insert: %v %+v", err, res)
	}

	// Kill a node holding a replica (not the client).
	var victim *tcpNode
	for _, nd := range nodes[1:] {
		if nd.node.HasReplica(res.FileID) {
			victim = nd
			break
		}
	}
	if victim == nil {
		t.Skip("no replica on a non-client node")
	}
	victim.t.Close()

	// Keep-alive rounds on the survivors repair leaf sets and re-create
	// the lost replica.
	for round := 0; round < 2; round++ {
		for _, nd := range nodes {
			if nd == victim {
				continue
			}
			nd.node.Overlay().CheckLeafSet()
		}
	}

	got, err := client.Lookup(res.FileID)
	if err != nil || !got.Found {
		t.Fatalf("lookup after TCP node failure: %v %+v", err, got)
	}
}

func TestTCPUnknownNode(t *testing.T) {
	register()
	rng := rand.New(rand.NewSource(4))
	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 8}
	cfg.K = 3
	nd := startNode(t, rng, cfg, 1<<20)
	defer nd.t.Close()
	var ghost id.Node
	rng.Read(ghost[:])
	if _, err := nd.t.Invoke(context.Background(), nd.node.ID(), ghost, &pastry.Ping{}); err == nil {
		t.Fatal("invoke of unknown node must fail")
	}
	if nd.t.Alive(ghost) {
		t.Fatal("ghost node reported alive")
	}
	if !nd.t.Alive(nd.node.ID()) {
		t.Fatal("self must be alive")
	}
}

func TestTCPProximityFromDirectory(t *testing.T) {
	nodes := buildTCPCluster(t, 4, 5)
	a, b := nodes[0], nodes[1]
	d, ok := a.t.Proximity(a.node.ID(), b.node.ID())
	if !ok || d <= 0 {
		t.Fatalf("proximity = %g, %v", d, ok)
	}
	// Symmetric across transports.
	d2, ok := b.t.Proximity(a.node.ID(), b.node.ID())
	if !ok || fmt.Sprintf("%.6f", d) != fmt.Sprintf("%.6f", d2) {
		t.Fatalf("asymmetric proximity: %g vs %g", d, d2)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	nodes := buildTCPCluster(t, 6, 6)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := nodes[i%len(nodes)].node
			res, err := client.Insert(past.InsertSpec{
				Name:    fmt.Sprintf("conc-%d", i),
				Content: []byte(fmt.Sprintf("payload %d", i)),
			})
			if err != nil {
				errs <- err
				return
			}
			if !res.OK {
				errs <- fmt.Errorf("insert %d failed: %s", i, res.Reason)
				return
			}
			got, err := client.Lookup(res.FileID)
			if err != nil {
				errs <- err
				return
			}
			if !got.Found {
				errs <- fmt.Errorf("lookup %d not found", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCachePolicyOverTCP(t *testing.T) {
	register()
	rng := rand.New(rand.NewSource(7))
	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 8}
	cfg.K = 3
	cfg.CachePolicy = cache.GDS

	first := startNode(t, rng, cfg, 1<<22)
	first.node.Overlay().Bootstrap()
	nodes := []*tcpNode{first}
	for i := 1; i < 6; i++ {
		nd := startNode(t, rng, cfg, 1<<22)
		bootID, err := nd.t.Bootstrap(first.t.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.node.Overlay().Join(bootID); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	defer func() {
		for _, nd := range nodes {
			nd.t.Close()
		}
	}()

	res, err := nodes[0].node.Insert(past.InsertSpec{Name: "hot", Content: []byte("popular content")})
	if err != nil || !res.OK {
		t.Fatalf("insert: %v %+v", err, res)
	}
	far := nodes[5].node
	if _, err := far.Lookup(res.FileID); err != nil {
		t.Fatal(err)
	}
	second, err := far.Lookup(res.FileID)
	if err != nil || !second.Found {
		t.Fatalf("second lookup: %v %+v", err, second)
	}
	if second.Hops != 0 {
		t.Fatalf("second lookup took %d hops; expected cached at access point", second.Hops)
	}
}

func TestInvokeAddrDialFailure(t *testing.T) {
	register()
	rng := rand.New(rand.NewSource(8))
	var nid id.Node
	rng.Read(nid[:])
	tr, err := New(nid, "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.InvokeAddr("127.0.0.1:1", &pastry.Ping{}); err == nil {
		t.Fatal("dial to a closed port must fail")
	}
	if _, err := tr.Bootstrap("127.0.0.1:1"); err == nil {
		t.Fatal("bootstrap via a dead address must fail")
	}
}

func TestInvokeBeforeServe(t *testing.T) {
	register()
	rng := rand.New(rand.NewSource(9))
	var a, b id.Node
	rng.Read(a[:])
	rng.Read(b[:])
	ta, err := New(a, "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	// Self-invoke without an endpoint installed errors cleanly.
	if _, err := ta.Invoke(context.Background(), a, a, &pastry.Ping{}); err == nil {
		t.Fatal("self-invoke without endpoint must fail")
	}
	// Invoke to an id that is not in the directory.
	if _, err := ta.Invoke(context.Background(), a, b, &pastry.Ping{}); err == nil {
		t.Fatal("unknown destination must fail")
	}
}

func TestConnectionPoolReuse(t *testing.T) {
	nodes := buildTCPCluster(t, 3, 10)
	a, b := nodes[0], nodes[1]
	// Repeated pings between the same pair must reuse pooled
	// connections rather than growing without bound.
	for i := 0; i < 50; i++ {
		if _, err := a.t.Invoke(context.Background(), a.node.ID(), b.node.ID(), &pastry.Ping{}); err != nil {
			t.Fatal(err)
		}
	}
	pooled := pooledTo(a.t, b.node.ID())
	if pooled == 0 || pooled > 2 {
		t.Fatalf("pool size %d; want 1..2", pooled)
	}
}

func TestServerRejectsAfterClose(t *testing.T) {
	register()
	rng := rand.New(rand.NewSource(11))
	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 8}
	cfg.K = 1
	nd := startNode(t, rng, cfg, 1<<20)
	addr := nd.t.Addr()
	nd.node.Overlay().Bootstrap()
	if err := nd.t.Close(); err != nil {
		t.Fatal(err)
	}
	var cid id.Node
	rng.Read(cid[:])
	ct, err := New(cid, "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	if _, err := ct.InvokeAddr(addr, &pastry.Ping{}); err == nil {
		t.Fatal("closed server still answering")
	}
}

// faultyServer is a raw TCP server whose per-connection behavior is
// scripted: each accepted connection consumes the next script entry.
// "echo" answers every request on the connection correctly; "half"
// reads one request, writes a truncated (half-written) response frame,
// and slams the connection shut; "echo-then-half" echoes the first
// request and half-writes the second (poisoning a connection only after
// the client has pooled it). cut is how many bytes of the response
// frame a half-write delivers: 3 stops inside the 6-byte header, 7
// inside the 2-byte body of an echoed Ping.
type faultyServer struct {
	ln      net.Listener
	accepts atomic.Int32
}

// halfWriteCuts are the truncation points every half-written-response
// test runs at: mid-header and mid-body.
var halfWriteCuts = map[string]int{"mid-header": 3, "mid-body": 7}

func newFaultyServer(t *testing.T, cut int, script []string) *faultyServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &faultyServer{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepts.Add(1)
			mode := "echo"
			if i < len(script) {
				mode = script[i]
			}
			go func(c net.Conn, mode string) {
				defer c.Close()
				codec := wire.NewCodec(c)
				for n := 0; ; n++ {
					req, err := codec.ReadRequest()
					if err != nil {
						return
					}
					if mode == "half" || (mode == "echo-then-half" && n > 0) {
						// A prefix of the frame a healthy server would
						// have sent, then EOF.
						var frame bytes.Buffer
						wire.NewCodec(&frame).WriteResponse(&wire.Response{Msg: req.Msg})
						c.Write(frame.Bytes()[:cut])
						return
					}
					if err := codec.WriteResponse(&wire.Response{Msg: req.Msg}); err != nil {
						return
					}
				}
			}(c, mode)
		}
	}()
	return s
}

// dialFaulty wires a client transport to the faulty server under a fake
// node id, bypassing directory gossip.
func dialFaulty(t *testing.T, s *faultyServer) (*TCP, id.Node) {
	t.Helper()
	register()
	var cid, sid id.Node
	rng := rand.New(rand.NewSource(99))
	rng.Read(cid[:])
	rng.Read(sid[:])
	ct, err := New(cid, "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ct.Close() })
	ct.mu.Lock()
	ct.dir[sid] = wire.DirEntry{ID: sid, Addr: s.ln.Addr().String()}
	ct.mu.Unlock()
	return ct, sid
}

// pooledTo counts the idle connections ct holds to the node sid.
func pooledTo(ct *TCP, sid id.Node) int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return len(ct.idle[ct.dir[sid].Addr])
}

// eachCut runs a half-written-response test at every truncation point.
func eachCut(t *testing.T, test func(t *testing.T, cut int)) {
	for name, cut := range halfWriteCuts {
		t.Run(name, func(t *testing.T) { test(t, cut) })
	}
}

func TestStalePooledConnRetriesOnFreshDial(t *testing.T) { eachCut(t, testStalePooledConnRetries) }

func testStalePooledConnRetries(t *testing.T, cut int) {
	// Connection 1 succeeds and is pooled, then serves a half-written
	// response on reuse; the retry's fresh connection behaves.
	s := newFaultyServer(t, cut, []string{"echo-then-half", "echo"})
	ct, sid := dialFaulty(t, s)

	// Hand the pool a healthy-looking connection whose server side will
	// poison the next exchange.
	if _, err := ct.Invoke(context.Background(), ct.self, sid, &pastry.Ping{}); err != nil {
		t.Fatalf("first invoke: %v", err)
	}
	pooled := pooledTo(ct, sid)
	if pooled != 1 {
		t.Fatalf("pooled %d connections; want 1", pooled)
	}

	if _, err := ct.Invoke(context.Background(), ct.self, sid, &pastry.Ping{}); err != nil {
		t.Fatalf("invoke over stale pooled conn must retry on a fresh dial: %v", err)
	}
	if got := s.accepts.Load(); got != 2 {
		t.Fatalf("server saw %d connections; want 2 (pooled + one retry)", got)
	}
	// The poisoned connection must not have been re-pooled; only the
	// fresh one may remain.
	pooled = pooledTo(ct, sid)
	if pooled != 1 {
		t.Fatalf("pool holds %d connections after retry; want 1", pooled)
	}
}

func TestHalfWrittenResponseOnFreshConnFails(t *testing.T) { eachCut(t, testHalfWrittenFreshConn) }

func testHalfWrittenFreshConn(t *testing.T, cut int) {
	// A half-written response on a FRESH connection is authoritative:
	// exactly one attempt, error surfaced, nothing pooled.
	s := newFaultyServer(t, cut, []string{"half"})
	ct, sid := dialFaulty(t, s)

	if _, err := ct.Invoke(context.Background(), ct.self, sid, &pastry.Ping{}); err == nil {
		t.Fatal("invoke must fail when the fresh connection dies mid-response")
	}
	if got := s.accepts.Load(); got != 1 {
		t.Fatalf("server saw %d connections; want 1 (no retry for fresh conns)", got)
	}
	pooled := pooledTo(ct, sid)
	if pooled != 0 {
		t.Fatalf("broken connection was pooled (%d)", pooled)
	}
}

func TestStaleConnRetryAlsoFailingSurfacesError(t *testing.T) { eachCut(t, testStaleRetryAlsoFails) }

func testStaleRetryAlsoFails(t *testing.T, cut int) {
	// Pooled conn goes stale AND the retry's fresh conn half-writes:
	// the error surfaces after exactly one retry, and neither broken
	// connection lands back in the pool.
	s := newFaultyServer(t, cut, []string{"echo-then-half", "half"})
	ct, sid := dialFaulty(t, s)

	if _, err := ct.Invoke(context.Background(), ct.self, sid, &pastry.Ping{}); err != nil {
		t.Fatalf("first invoke: %v", err)
	}
	if _, err := ct.Invoke(context.Background(), ct.self, sid, &pastry.Ping{}); err == nil {
		t.Fatal("invoke must fail when the retry's fresh connection also dies")
	}
	if got := s.accepts.Load(); got != 2 {
		t.Fatalf("server saw %d connections; want 2 (pooled + exactly one retry)", got)
	}
	pooled := pooledTo(ct, sid)
	if pooled != 0 {
		t.Fatalf("broken connection was pooled (%d)", pooled)
	}
}

// admitTCPPair builds a two-node TCP overlay where only the second
// node runs admission control against a frozen clock, plus a fileId
// whose route from the first node enters through the gated one.
func admitTCPPair(t *testing.T, ac admit.Config) (client *past.Node, gated *past.Node, f id.File) {
	t.Helper()
	register()
	rng := rand.New(rand.NewSource(42))
	cfg := past.DefaultConfig()
	// FailFast surfaces a hop's shed to the caller instead of absorbing
	// it into per-hop reroute — the two-node topology has no alternate
	// routes anyway, and these tests assert on the raw wire error.
	cfg.Pastry = pastry.Config{B: 4, L: 8, FailFast: true}
	cfg.K = 1

	a := startNode(t, rng, cfg, 1<<20)
	a.node.Overlay().Bootstrap()

	frozen := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	ac.Clock = func() time.Time { return frozen }
	gcfg := cfg
	gcfg.Admit = &ac
	b := startNode(t, rng, gcfg, 1<<20)
	bootID, err := b.t.Bootstrap(a.t.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.node.Overlay().Join(bootID); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.t.Close(); b.t.Close() })

	// Find a missing fileId that a routes through b (misses are never
	// cached, so every lookup re-crosses the wire).
	for i := 0; i < 1000; i++ {
		rng.Read(f[:])
		if a.node.Overlay().FirstHop(f.Key()) == b.node.ID() {
			return a.node, b.node, f
		}
	}
	t.Fatal("no key routing a->b found")
	return nil, nil, f
}

func TestTCPOverloadedRoundTripsWire(t *testing.T) {
	// A gated node sheds a routed lookup; the shed must cross the real
	// socket as an error code and come back as netsim.ErrOverloaded at the
	// sender, where errors.Is classification drives rerouting.
	client, gated, f := admitTCPPair(t, admit.Config{Rate: 1, Burst: 2, Depth: 1})
	var overloaded error
	for i := 0; i < 10 && overloaded == nil; i++ {
		if _, err := client.Lookup(f); err != nil {
			overloaded = err
		}
	}
	if overloaded == nil {
		t.Fatal("frozen token bucket never shed over TCP")
	}
	if !errors.Is(overloaded, netsim.ErrOverloaded) {
		t.Fatalf("remote shed did not come back as ErrOverloaded: %v", overloaded)
	}
	if gated.StatsSnapshot().Get(admit.CtrShed) == 0 {
		t.Fatal("gated node recorded no sheds")
	}
}

func TestTCPConcurrentClientsAdmission(t *testing.T) {
	// The satellite race test: many concurrent TCP clients hit one
	// admission-gated node's blocking client-RPC gate. Every request
	// must resolve — granted after queueing, or shed with a wire-coded
	// ErrOverloaded — with the counters reconciling exactly.
	register()
	rng := rand.New(rand.NewSource(77))
	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 8}
	cfg.K = 1
	cfg.Admit = &admit.Config{Rate: 50, Burst: 2, Depth: 4}
	nd := startNode(t, rng, cfg, 1<<20)
	nd.node.Overlay().Bootstrap()
	defer nd.t.Close()
	addr := nd.t.Addr()

	const clients, perClient = 8, 4
	var wg sync.WaitGroup
	var served, shed atomic.Int64
	errCh := make(chan error, clients*perClient)
	for i := 0; i < clients; i++ {
		var cid id.Node
		rng.Read(cid[:])
		ct, err := New(cid, "127.0.0.1:0", topology.Point{})
		if err != nil {
			t.Fatal(err)
		}
		defer ct.Close()
		for j := 0; j < perClient; j++ {
			wg.Add(1)
			go func(ct *TCP, i, j int) {
				defer wg.Done()
				var f id.File
				rand.New(rand.NewSource(int64(i*100 + j))).Read(f[:])
				_, err := ct.InvokeAddr(addr, &past.ClientLookup{File: f})
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, netsim.ErrOverloaded):
					shed.Add(1)
				default:
					errCh <- err
				}
			}(ct, i, j)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("unexpected client error: %v", err)
	}
	total := int64(clients * perClient)
	if served.Load()+shed.Load() != total {
		t.Fatalf("served %d + shed %d != %d", served.Load(), shed.Load(), total)
	}
	if shed.Load() == 0 {
		t.Fatal("burst of concurrent clients never shed (capacity 6 vs 32 arrivals)")
	}
	snap := nd.node.StatsSnapshot()
	if admitted, shed := snap.Get(admit.CtrAdmitted), snap.Get(admit.CtrShed); admitted+shed != total {
		t.Fatalf("controller admitted %d + shed %d != %d", admitted, shed, total)
	}
}

// TestErrorClassificationMatchesInProcess: a handler error must
// classify under errors.Is over a real socket pair exactly as it does
// when netsim hands it back in-process — a wrapped sentinel stays that
// sentinel, and an application error whose text merely quotes one
// (formatted with %v) stays opaque instead of evicting a live peer.
func TestErrorClassificationMatchesInProcess(t *testing.T) {
	register()
	sentinels := []error{netsim.ErrNodeDown, netsim.ErrUnknownNode, netsim.ErrTimeout, netsim.ErrOverloaded}
	cases := []error{errors.New("disk full")}
	for _, s := range sentinels {
		cases = append(cases, s, fmt.Errorf("hop 3: %w", s), fmt.Errorf("upstream said: %v", s))
	}
	// The request's Row picks the error the handler returns.
	ep := epFunc(func(_ id.Node, msg any) (any, error) { return nil, cases[msg.(*pastry.RowRequest).Row] })

	rng := rand.New(rand.NewSource(73))
	var sid, cid id.Node
	rng.Read(sid[:])
	rng.Read(cid[:])
	srv := startRestartable(t, "127.0.0.1:0", sid, ep)
	defer srv.kill()
	ct, err := New(cid, "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	ct.AddEntry(srv.tr.SelfEntry())

	for i, handlerErr := range cases {
		msg := &pastry.RowRequest{Row: i}
		_, byID := ct.Invoke(context.Background(), cid, sid, msg)
		_, byAddr := ct.InvokeAddr(srv.addr, msg)
		for name, got := range map[string]error{"Invoke": byID, "InvokeAddr": byAddr} {
			if got == nil || !strings.Contains(got.Error(), handlerErr.Error()) {
				t.Fatalf("%s lost the handler's error %q: %v", name, handlerErr, got)
			}
			for _, s := range sentinels {
				if want := errors.Is(handlerErr, s); errors.Is(got, s) != want {
					t.Errorf("%s of %q: errors.Is(%v) = %v over TCP, %v in-process", name, handlerErr, s, !want, want)
				}
			}
		}
	}
}

// stuckDeadlineConn is a connection whose deadline can be set but never
// cleared: SetDeadline with the zero time fails.
type stuckDeadlineConn struct{ net.Conn }

func (c stuckDeadlineConn) SetDeadline(dl time.Time) error {
	if dl.IsZero() {
		return errors.New("deadline stuck")
	}
	return c.Conn.SetDeadline(dl)
}

// TestUnclearableDeadlineConnNotPooled: an exchange under a deadline
// that completes but leaves the deadline uncleared returns its reply
// and drops the connection; pooling it would hand the next call a
// socket that times out or is already closed.
func TestUnclearableDeadlineConnNotPooled(t *testing.T) {
	register()
	ct, err := New(id.NodeFromUint64(1), "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		codec := wire.NewCodec(server)
		if req, err := codec.ReadRequest(); err == nil {
			codec.WriteResponse(&wire.Response{Msg: req.Msg})
		}
	}()
	const addr = "pipe"
	ct.mu.Lock()
	ct.idle[addr] = []*conn{{c: stuckDeadlineConn{client}, codec: wire.NewCodec(client)}}
	ct.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := ct.call(ctx, addr, wire.Request{Src: ct.self, Msg: &pastry.Ping{}}); err != nil {
		t.Fatalf("call: %v", err)
	}
	ct.mu.Lock()
	idle := len(ct.idle[addr])
	ct.mu.Unlock()
	if idle != 0 {
		t.Fatalf("%d idle connections after the deadline could not be cleared; want 0", idle)
	}
}

// TestNoPoolingAfterClose: a call that completes on a closed transport
// closes its connection rather than pooling it, since Close has already
// emptied the pool and nothing would close a connection added later.
func TestNoPoolingAfterClose(t *testing.T) {
	s := newFaultyServer(t, 0, nil)
	ct, sid := dialFaulty(t, s)
	ct.Close()
	if _, err := ct.Invoke(context.Background(), ct.self, sid, &pastry.Ping{}); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if pooled := pooledTo(ct, sid); pooled != 0 {
		t.Fatalf("closed transport pooled %d connections; want 0", pooled)
	}
}

// TestConnAcceptedDuringCloseIsNotServed: a connection that reaches
// serveConn once Close has begun (accepted just before the listener
// closed) is closed at once; served, it would escape Close's sweep,
// keep delivering to the endpoint and hold Close's wait open until the
// peer hung up.
func TestConnAcceptedDuringCloseIsNotServed(t *testing.T) {
	register()
	tr, err := New(id.NodeFromUint64(1), "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	tr.Serve(echoEP())
	tr.Close()
	client, server := net.Pipe()
	defer client.Close()
	tr.wg.Add(1)
	done := make(chan struct{})
	go func() {
		tr.serveConn(server)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("a connection that arrived after Close is still being served")
	}
	if _, err := client.Write([]byte{0}); err == nil {
		t.Fatal("the unserved connection is still open")
	}
}

// rpcPair serves ep on one transport and returns another that has the
// server in its directory and a pooled connection to it.
func rpcPair(t *testing.T, ep netsim.Endpoint) (cli *TCP, cliID, srvID id.Node) {
	t.Helper()
	register()
	srvID, cliID = id.NodeFromUint64(1), id.NodeFromUint64(2)
	srv, err := New(srvID, "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Serve(ep)
	if cli, err = New(cliID, "127.0.0.1:0", topology.Point{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	cli.AddEntry(srv.SelfEntry())
	if _, err := cli.Invoke(context.Background(), cliID, srvID, &pastry.Ping{}); err != nil {
		t.Fatal(err) // dial outside the measured calls
	}
	return cli, cliID, srvID
}

// TestAllocBudgetRPC pins what an RPC over loopback TCP allocates,
// client and server counted together: the messages it delivers and
// their byte strings, and no envelope or frame buffer. The endpoint answers with a
// shared reply, as an application's status replies are.
func TestAllocBudgetRPC(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	ctx := context.Background()
	t.Run("ping", func(t *testing.T) {
		pong := &pastry.Pong{}
		cli, cliID, srvID := rpcPair(t, epFunc(func(id.Node, any) (any, error) { return pong, nil }))
		ping := &pastry.Ping{}
		got := testing.AllocsPerRun(200, func() {
			if _, err := cli.Invoke(ctx, cliID, srvID, ping); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Fatalf("a Ping round trip made %v allocations; want 0", got)
		}
	})
	t.Run("4KiB-lookup", func(t *testing.T) {
		reply := &past.ClientLookupReply{Found: true, Size: 4 << 10, Content: bytes.Repeat([]byte{7}, 4<<10)}
		cli, cliID, srvID := rpcPair(t, epFunc(func(id.Node, any) (any, error) { return reply, nil }))
		f := id.NewFile("x", nil, 1)
		var res any
		got := testing.AllocsPerRun(200, func() {
			var err error
			if res, err = cli.Invoke(ctx, cliID, srvID, &past.ClientLookup{File: f}); err != nil {
				t.Fatal(err)
			}
		})
		if r, ok := res.(*past.ClientLookupReply); !ok || !bytes.Equal(r.Content, reply.Content) {
			t.Fatalf("reply %+v", res)
		}
		// The request, its decoded copy, the decoded reply and its
		// content.
		if got > 4 {
			t.Fatalf("a 4 KiB lookup round trip made %v allocations; want at most 4", got)
		}
	})
}

// TestAllocBudgetBorrowedRequest: a received request is borrowed, so
// once a connection's buffers have grown, a 64 KiB insert-shaped RPC
// allocates no frame and no payload anywhere in the process, client and
// server counted together: only the decoded request and reply structs.
// When a large frame was read into a buffer of its own, this was 64 KiB.
func TestAllocBudgetBorrowedRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	reply := &past.ClientInsertReply{OK: true}
	cli, cliID, srvID := rpcPair(t, epFunc(func(id.Node, any) (any, error) { return reply, nil }))
	msg := &past.ClientInsert{Name: "budget", Content: bytes.Repeat([]byte{7}, 64<<10)}
	call := func() {
		if _, err := cli.Invoke(context.Background(), cliID, srvID, msg); err != nil {
			t.Fatal(err)
		}
	}
	call() // warm-up: grows the server connection's body buffer
	perOp := ^uint64(0)
	var a, b runtime.MemStats
	for batch := 0; batch < 3; batch++ {
		const calls = 50
		runtime.ReadMemStats(&a)
		for range calls {
			call()
		}
		runtime.ReadMemStats(&b)
		perOp = min(perOp, (b.TotalAlloc-a.TotalAlloc)/calls)
	}
	t.Logf("a 64 KiB insert RPC allocates %d bytes", perOp)
	if perOp > 1<<10 {
		t.Fatalf("a 64 KiB insert RPC allocated %d bytes in the process; want at most 1 KiB", perOp)
	}
}

// TestFleetKeepsWhatItReceives is the end-to-end oracle of the borrowed
// request rule: a request frame is reused once its handler returns, so
// every node that keeps a payload must have copied it — a store, a
// cache, a fragment table. Ten loopback nodes take 80 random files of
// 1–21 KiB through client RPCs, from frames decoded in the read buffer
// and frames read into the body buffer, four clients at a time; then
// every node looks up every file and each answer must be the bytes
// inserted, and no fetched fragment may fail its CRC. The variants put different keepers on the path: in-memory
// stores and GD-S caches; rs(3,2) with no cache, so every lookup
// rebuilds from fragment tables; and logstore disks with GD-S caches.
func TestFleetKeepsWhatItReceives(t *testing.T) {
	rs32 := fleetConfig()
	rs32.CachePolicy = cache.None
	rs32.ECMode = &ec.Params{Data: 3, Parity: 2}
	for _, v := range []struct {
		name    string
		cfg     past.Config
		backend func(t *testing.T) store.Backend
	}{
		{"gds-cache", fleetConfig(), func(*testing.T) store.Backend { return store.New(1 << 22) }},
		{"rs-3-2", rs32, func(*testing.T) store.Backend { return store.New(1 << 22) }},
		{"logstore", fleetConfig(), func(t *testing.T) store.Backend {
			ls, err := logstore.Open(t.TempDir(), logstore.Options{Capacity: 1 << 22, Sync: logstore.SyncNever, CheckpointBytes: -1, CompactRatio: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ls.Close() })
			return ls
		}},
	} {
		t.Run(v.name, func(t *testing.T) {
			nodes := buildFleet(t, 10, 58, v.cfg, func() store.Backend { return v.backend(t) })
			cid := id.NodeFromUint64(58)
			ct, err := New(cid, "127.0.0.1:0", topology.Point{})
			if err != nil {
				t.Fatal(err)
			}
			defer ct.Close()

			rng := rand.New(rand.NewSource(58))
			const files, clients = 80, 4
			contents := make([][]byte, files)
			for i := range contents {
				contents[i] = make([]byte, 1<<10+rng.Intn(20<<10+1))
				rng.Read(contents[i])
			}
			ids := make([]id.File, files)
			var wg sync.WaitGroup
			errs := make(chan error, files)
			for c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := c; i < files; i += clients {
						addr := nodes[i%len(nodes)].t.Addr()
						res, err := netsim.ReplyAs[past.ClientInsertReply](ct.InvokeAddr(addr, &past.ClientInsert{Name: fmt.Sprintf("oracle-%d", i), Content: contents[i]}))
						if err == nil && !res.OK {
							err = fmt.Errorf("insert %d: %s", i, res.Reason)
						}
						if err != nil {
							errs <- err
							return
						}
						ids[i] = res.FileID
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			var wrong atomic.Int64
			lookups := make(chan error, len(nodes))
			for _, nd := range nodes {
				go func() {
					var err error
					for i, f := range ids {
						var lr *past.ClientLookupReply
						if lr, err = netsim.ReplyAs[past.ClientLookupReply](ct.InvokeAddr(nd.t.Addr(), &past.ClientLookup{File: f})); err != nil {
							break
						}
						if !lr.Found || !bytes.Equal(lr.Content, contents[i]) {
							wrong.Add(1)
						}
					}
					lookups <- err
				}()
			}
			for range nodes {
				if err := <-lookups; err != nil {
					t.Fatal(err)
				}
			}
			if n := wrong.Load(); n > 0 {
				t.Fatalf("%d of %d lookups did not return the bytes inserted", n, files*len(nodes))
			}
			// A lookup fetches past a fragment that fails its CRC, so a
			// kept fragment overwritten in place shows here first.
			var crcFailures int64
			for _, nd := range nodes {
				crcFailures += nd.node.StatsSnapshot().Get(obs.CtrECCRCFailures)
			}
			if crcFailures > 0 {
				t.Fatalf("%d fragments no longer matched their CRC when fetched", crcFailures)
			}
		})
	}
}
