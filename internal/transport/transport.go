// Package transport runs PAST nodes over real TCP sockets. It
// implements the same netsim.Net interface the in-process emulation
// provides, so the identical pastry.Node and past.Node code routes,
// joins, stores, and repairs over the wire.
//
// A TCP value is one process's view of the network: a directory of
// id -> address mappings (seeded from a bootstrap node and spread by
// announcement), a pool of client connections, and a server that
// delivers incoming requests to the local endpoint. Node positions on
// the emulated proximity plane travel with the directory entries; a
// deployment would substitute measured round-trip times.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"past/internal/id"
	"past/internal/netsim"
	"past/internal/obs"
	"past/internal/topology"
	"past/internal/wire"
)

// TracedEndpoint is implemented by endpoints that accept the wire
// envelope's trace context alongside a delivery (past.Node does). The
// transport hands incoming requests carrying an active trace context to
// DeliverTraced; plain endpoints keep receiving Deliver, so trace
// propagation is strictly opt-in per endpoint.
type TracedEndpoint interface {
	netsim.Endpoint
	DeliverTraced(tc obs.TraceContext, from id.Node, msg any) (any, error)
}

// deliver hands one request to the endpoint, routing through the traced
// entry point when the envelope carries an active trace context.
func deliver(ep netsim.Endpoint, req wire.Request) (any, error) {
	if req.TC.Active() {
		if te, ok := ep.(TracedEndpoint); ok {
			return te.DeliverTraced(req.TC, req.Src, req.Msg)
		}
	}
	return ep.Deliver(req.Src, req.Msg)
}

// DefaultDialTimeout bounds connection establishment; a node that
// cannot be dialed is reported down, which is how Pastry detects
// failures.
const DefaultDialTimeout = 2 * time.Second

// TCP is a transport endpoint: client side (netsim.Net) plus server.
type TCP struct {
	self id.Node
	addr string // listen address, rewritten to the bound address

	mu      sync.Mutex
	dir     map[id.Node]wire.DirEntry
	idle    map[string][]*conn // pooled client connections by peer address
	serving map[net.Conn]struct{}
	ep      netsim.Endpoint
	ln      net.Listener
	wg      sync.WaitGroup
	done    chan struct{}
	once    sync.Once
}

var _ netsim.Net = (*TCP)(nil)

type conn struct {
	c     net.Conn
	codec *wire.Codec
}

// New creates a transport for the node self, listening on addr (use
// 127.0.0.1:0 for tests). pos is the node's position on the proximity
// plane. The endpoint must be set with Serve before traffic arrives.
func New(self id.Node, addr string, pos topology.Point) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &TCP{
		self:    self,
		addr:    ln.Addr().String(),
		dir:     make(map[id.Node]wire.DirEntry),
		idle:    make(map[string][]*conn),
		serving: make(map[net.Conn]struct{}),
		ln:      ln,
		done:    make(chan struct{}),
	}
	t.dir[self] = wire.DirEntry{ID: self, Addr: t.addr, X: pos.X, Y: pos.Y}
	return t, nil
}

// Addr returns the bound listen address.
func (t *TCP) Addr() string { return t.addr }

// Serve installs the local endpoint and starts accepting connections.
func (t *TCP) Serve(ep netsim.Endpoint) {
	t.mu.Lock()
	t.ep = ep
	t.mu.Unlock()
	t.wg.Add(1)
	go t.acceptLoop()
}

// Close stops the server and closes pooled connections.
func (t *TCP) Close() error {
	t.once.Do(func() { close(t.done) })
	err := t.ln.Close()
	t.mu.Lock()
	for _, cs := range t.idle {
		for _, c := range cs {
			c.c.Close()
		}
	}
	t.idle = make(map[string][]*conn)
	for c := range t.serving {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return err
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			return
		}
		t.wg.Add(1)
		go t.serveConn(c)
	}
}

// serveConn answers c's requests until it fails. A conn that arrives
// once Close has begun is closed unserved: Close sweeps t.serving under
// t.mu after closing t.done, so registering under the same lock only
// while t.done is open leaves no conn that the sweep misses.
func (t *TCP) serveConn(c net.Conn) {
	defer t.wg.Done()
	t.mu.Lock()
	select {
	case <-t.done:
		t.mu.Unlock()
		c.Close()
		return
	default:
	}
	t.serving[c] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.serving, c)
		t.mu.Unlock()
		c.Close()
	}()
	codec := wire.NewCodec(c)
	for {
		req, err := codec.ReadRequest()
		if err != nil {
			return
		}
		resp := t.dispatch(req)
		if err := codec.WriteResponse(&resp); err != nil {
			return
		}
	}
}

// dispatch handles directory gossip locally and hands everything else
// to the node endpoint.
func (t *TCP) dispatch(req wire.Request) wire.Response {
	switch m := req.Msg.(type) {
	case *wire.DirEntry:
		t.AddEntry(*m)
		return wire.Response{Msg: &wire.DirReply{Entries: t.Entries()}}
	case *wire.DirQuery:
		return wire.Response{Msg: &wire.DirReply{Entries: t.Entries()}}
	}
	t.mu.Lock()
	ep := t.ep
	t.mu.Unlock()
	if ep == nil {
		return wire.Response{Code: wire.CodeApp, Err: "transport: no endpoint installed"}
	}
	reply, err := deliver(ep, req)
	if err != nil {
		return wire.Response{Code: errCode(err), Err: err.Error()}
	}
	return wire.Response{Msg: reply}
}

// sentinels pairs each netsim sentinel with the code it crosses the
// wire as, in classification order.
var sentinels = []struct {
	code wire.ErrCode
	err  error
}{
	{wire.CodeNodeDown, netsim.ErrNodeDown},
	{wire.CodeUnknownNode, netsim.ErrUnknownNode},
	{wire.CodeTimeout, netsim.ErrTimeout},
	{wire.CodeOverloaded, netsim.ErrOverloaded},
}

// errCode classifies a handler error for the response's code byte: the
// sentinel it wraps, exactly as errors.Is sees it in-process, or
// CodeApp. The text of the error plays no part, so an application error
// that merely quotes a sentinel's message stays an application error.
func errCode(err error) wire.ErrCode {
	for _, s := range sentinels {
		if errors.Is(err, s.err) {
			return s.code
		}
	}
	return wire.CodeApp
}

// replyOf unpacks a response: the reply message, or the remote
// handler's error with its sentinel restored from the code byte, so
// errors.Is classification (and therefore retry decisions) work
// identically over sockets and in-process.
func replyOf(resp wire.Response) (any, error) {
	if resp.Code == wire.CodeNone {
		return resp.Msg, nil
	}
	for _, s := range sentinels {
		if resp.Code == s.code {
			return nil, fmt.Errorf("%w: remote: %s", s.err, resp.Err)
		}
	}
	return nil, errors.New(resp.Err)
}

// AddEntry records (or updates) a directory entry.
func (t *TCP) AddEntry(e wire.DirEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dir[e.ID] = e
}

// Entries returns a directory snapshot with this node's entry first
// (bootstrap peers identify the responder by that position).
func (t *TCP) Entries() []wire.DirEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]wire.DirEntry, 0, len(t.dir))
	out = append(out, t.dir[t.self])
	for nid, e := range t.dir {
		if nid != t.self {
			out = append(out, e)
		}
	}
	return out
}

// SelfEntry returns this node's directory entry.
func (t *TCP) SelfEntry() wire.DirEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dir[t.self]
}

// Invoke sends msg to dst and returns its reply, implementing
// netsim.Net. Unknown or unreachable destinations map onto the
// emulation's sentinel errors so the protocol layers behave
// identically over sockets; the context deadline bounds the whole
// exchange (dial + write + read) and its expiry surfaces as
// netsim.ErrTimeout.
func (t *TCP) Invoke(ctx context.Context, src, dst id.Node, msg any) (any, error) {
	if err := netsim.CtxErr(ctx); err != nil {
		return nil, err
	}
	t.mu.Lock()
	e, ok := t.dir[dst]
	t.mu.Unlock()
	if !ok {
		return nil, netsim.ErrUnknownNode
	}
	req := wire.Request{Src: src, Msg: msg}
	if tc, ok := obs.TraceFromContext(ctx); ok {
		req.TC = tc
	}
	if dst == t.self {
		// Loopback shortcut mirrors the emulation's direct call.
		t.mu.Lock()
		ep := t.ep
		t.mu.Unlock()
		if ep == nil {
			return nil, errors.New("transport: no endpoint installed")
		}
		return deliver(ep, req)
	}
	resp, err := t.call(ctx, e.Addr, req)
	if err != nil {
		if ctxErr := netsim.CtxErr(ctx); ctxErr != nil {
			return nil, ctxErr
		}
		if isTimeout(err) {
			return nil, fmt.Errorf("%w: %s: %v", netsim.ErrTimeout, dst.Short(), err)
		}
		return nil, fmt.Errorf("%w: %s: %v", netsim.ErrNodeDown, dst.Short(), err)
	}
	return replyOf(resp)
}

// isTimeout reports whether a socket-level failure was a deadline
// expiry rather than a refused/reset connection.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// InvokeAddr sends msg directly to a known address (used before the
// destination's nodeId is known, e.g. the first bootstrap contact, and
// by pure clients — pastctl, past-load, the past-cluster orchestrator —
// that address nodes by socket rather than by id). Connections are
// pooled per address. A pooled connection may have gone stale while
// idle — the peer restarted, the socket half-closed — in which case the
// first exchange fails at the socket layer; the request is then retried
// exactly once on a fresh dial, so a killed-then-restarted node is
// redialed transparently instead of surfacing a spurious decode error.
// Remote errors carry their sentinel's code, so callers can classify
// ErrOverloaded and friends across restarts too.
func (t *TCP) InvokeAddr(addr string, msg any) (any, error) {
	return t.InvokeAddrContext(context.Background(), addr, msg)
}

// InvokeAddrContext is InvokeAddr bounded by a context: the deadline
// covers the exchange, and a trace context attached with
// obs.ContextWithTrace is stamped onto the wire envelope — which is how
// `pastctl trace` asks a live access point for a hop-recorded lookup.
func (t *TCP) InvokeAddrContext(ctx context.Context, addr string, msg any) (any, error) {
	req := wire.Request{Src: t.self, Msg: msg}
	if tc, ok := obs.TraceFromContext(ctx); ok {
		req.TC = tc
	}
	resp, err := t.call(ctx, addr, req)
	if err != nil {
		return nil, err
	}
	return replyOf(resp)
}

// call performs one request/response on a pooled connection; a busy
// pool dials a fresh connection, so re-entrant RPC chains (A->B->A->B)
// cannot deadlock. A connection that fails mid-exchange (including a
// half-written response) is closed, never returned to the pool. If the
// failed connection came FROM the pool it may simply have gone stale
// while idle (peer restart, half-closed socket), so the request is
// retried once on a fresh dial before the destination is declared
// dead — a fresh-dial failure is authoritative.
func (t *TCP) call(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
	c, pooled, err := t.getConn(ctx, addr)
	if err != nil {
		return wire.Response{}, err
	}
	resp, err := roundTrip(ctx, c, req)
	if err != nil {
		c.c.Close()
		if !pooled || netsim.CtxErr(ctx) != nil {
			return wire.Response{}, err
		}
		if c, err = t.dial(ctx, addr); err != nil {
			return wire.Response{}, err
		}
		if resp, err = roundTrip(ctx, c, req); err != nil {
			c.c.Close()
			return wire.Response{}, err
		}
	}
	t.putConn(ctx, addr, c)
	return resp, nil
}

// roundTrip writes one request and reads its response, bounded by the
// context deadline via SetDeadline on the socket.
func roundTrip(ctx context.Context, c *conn, req wire.Request) (wire.Response, error) {
	if dl, ok := ctx.Deadline(); ok {
		if err := c.c.SetDeadline(dl); err != nil {
			return wire.Response{}, err
		}
	}
	if err := c.codec.WriteRequest(&req); err != nil {
		return wire.Response{}, err
	}
	return c.codec.ReadResponse()
}

// getConn returns an idle pooled connection if one exists (pooled =
// true), else a fresh dial.
func (t *TCP) getConn(ctx context.Context, addr string) (*conn, bool, error) {
	t.mu.Lock()
	if cs := t.idle[addr]; len(cs) > 0 {
		c := cs[len(cs)-1]
		t.idle[addr] = cs[:len(cs)-1]
		t.mu.Unlock()
		return c, true, nil
	}
	t.mu.Unlock()
	c, err := t.dial(ctx, addr)
	return c, false, err
}

func (t *TCP) dial(ctx context.Context, addr string) (*conn, error) {
	d := net.Dialer{Timeout: DefaultDialTimeout}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, codec: wire.NewCodec(c)}, nil
}

// putConn returns c, after a completed exchange under ctx, to addr's
// idle pool. It closes c instead when the deadline ctx set cannot be
// cleared, when the transport is closed (Close has emptied the pool and
// nothing would close it later) or when the pool is full.
func (t *TCP) putConn(ctx context.Context, addr string, c *conn) {
	if _, ok := ctx.Deadline(); ok && c.c.SetDeadline(time.Time{}) != nil {
		c.c.Close()
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.done:
	default:
		if len(t.idle[addr]) < 2 {
			t.idle[addr] = append(t.idle[addr], c)
			return
		}
	}
	c.c.Close()
}

// Alive reports whether dst is reachable right now, by probing the
// connection path (the keep-alive analogue).
func (t *TCP) Alive(dst id.Node) bool {
	if dst == t.self {
		return true
	}
	t.mu.Lock()
	e, ok := t.dir[dst]
	t.mu.Unlock()
	if !ok {
		return false
	}
	c, err := net.DialTimeout("tcp", e.Addr, DefaultDialTimeout)
	if err != nil {
		return false
	}
	c.Close()
	return true
}

// Proximity returns the plane distance between two directory entries.
func (t *TCP) Proximity(a, b id.Node) (float64, bool) {
	t.mu.Lock()
	ea, oka := t.dir[a]
	eb, okb := t.dir[b]
	t.mu.Unlock()
	if !oka || !okb {
		return 0, false
	}
	return topology.Distance(topology.Point{X: ea.X, Y: ea.Y}, topology.Point{X: eb.X, Y: eb.Y}), true
}

// Bootstrap seeds this transport's directory from the node at addr,
// announces this node to every directory member, and returns the
// bootstrap node's id (the overlay join target).
func (t *TCP) Bootstrap(addr string) (id.Node, error) {
	self := t.SelfEntry()
	reply, err := t.InvokeAddr(addr, &self)
	if err != nil {
		return id.Node{}, fmt.Errorf("transport: bootstrap %s: %w", addr, err)
	}
	dr, ok := reply.(*wire.DirReply)
	if !ok {
		return id.Node{}, fmt.Errorf("transport: bootstrap %s: unexpected reply %T", addr, reply)
	}
	if len(dr.Entries) == 0 {
		return id.Node{}, fmt.Errorf("transport: bootstrap %s returned an empty directory", addr)
	}
	bootID := dr.Entries[0].ID // responder lists itself first
	for _, e := range dr.Entries {
		t.AddEntry(e)
	}
	// Announce to everyone else so their directories include us before
	// overlay traffic arrives.
	for _, e := range dr.Entries {
		if e.ID == t.self || e.ID == bootID {
			continue
		}
		if _, err := t.InvokeAddr(e.Addr, &self); err != nil {
			continue // best effort; gossip repairs later
		}
	}
	return bootID, nil
}
