package past

import (
	"bytes"
	"context"
	"fmt"

	"past/internal/cache"
	"past/internal/ec"
	"past/internal/id"
	"past/internal/netsim"
	"past/internal/obs"
	"past/internal/pastry"
	"past/internal/store"
)

// app is the PAST node viewed as the Pastry application layer. It is a
// distinct type so that pastry upcalls don't collide with the netsim
// endpoint method set.
type app Node

var _ pastry.Application = (*app)(nil)

func (a *app) node() *Node { return (*Node)(a) }

// Forward fires at every node a routed message visits. Lookups are
// consumed by the first node that can produce the file (replica,
// diverted-replica pointer, or cached copy); inserts and reclaims are
// consumed by the first node that is among the k numerically closest to
// the fileId.
func (a *app) Forward(key id.Node, msg any) (bool, any, error) {
	n := a.node()
	switch m := msg.(type) {
	case *LookupMsg:
		if rep := n.localLookup(m.File); rep != nil {
			return true, rep, nil
		}
	case *InsertMsg:
		if n.overlay.IsAmongKClosest(key, m.K) {
			return true, n.coordinateInsert(key, m), nil
		}
	case *ReclaimMsg:
		if n.overlay.IsAmongKClosest(key, n.cfg.K) {
			return true, n.coordinateReclaim(key, m), nil
		}
	}
	return false, nil, nil
}

// Deliver fires at the numerically closest node; it must produce a
// definitive answer.
func (a *app) Deliver(key id.Node, msg any) (any, error) {
	n := a.node()
	switch m := msg.(type) {
	case *LookupMsg:
		if rep := n.localLookup(m.File); rep != nil {
			return rep, nil
		}
		return &LookupReply{Found: false}, nil
	case *InsertMsg:
		return n.coordinateInsert(key, m), nil
	case *ReclaimMsg:
		return n.coordinateReclaim(key, m), nil
	case *replicaSetQuery:
		return &replicaSetReply{Set: n.overlay.ReplicaSet(key, m.K)}, nil
	default:
		return nil, fmt.Errorf("past: node %s: unknown routed payload %T", n.ID().Short(), msg)
	}
}

// Backward fires on each path node as the reply returns toward the
// client: files are cached on all the nodes a successful insert or
// lookup was routed through (section 4). Under VerifyCerts a lookup's
// answer is cached only if its certificate vouches for its content: a
// cached copy carries no certificate, so its reader cannot check it.
func (a *app) Backward(key id.Node, msg, reply any) {
	n := a.node()
	switch m := msg.(type) {
	case *LookupMsg:
		if r, ok := reply.(*LookupReply); ok && r.Found {
			if n.cfg.VerifyCerts && (r.Cert == nil || r.Cert.Verify(n.cfg.Issuer, r.Content) != nil) {
				return
			}
			n.cacheFile(m.File, r.Size, r.Content, false)
		}
	case *InsertMsg:
		if r, ok := reply.(*InsertReply); ok && r.OK {
			n.cacheFile(m.File, m.Size, m.Content, m.borrowed)
		}
	}
}

// cacheFile offers a file to the local cache, unless this node holds a
// replica of it (a replica already serves lookups). A cache keeps what
// it is given, so borrowed content (a view of a received request frame)
// is copied first; a reply's content is its own and is kept as it is.
func (n *Node) cacheFile(f id.File, size int64, content []byte, borrowed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, held := n.store.Stat(f); held {
		return
	}
	if borrowed && n.cache.Config().Policy != cache.None {
		content = bytes.Clone(content)
	}
	n.cache.Insert(f, size, content)
}

// Deliver implements netsim.Endpoint: PAST's direct node-to-node
// messages are handled here; everything else (routing, join, pings) is
// delegated to the Pastry layer.
func (n *Node) Deliver(from id.Node, msg any) (any, error) {
	n.stats.MsgsIn.Add(1)
	return n.deliver(obs.TraceContext{}, from, msg)
}

// DeliverTraced implements transport.TracedEndpoint: the transport
// hands over the trace context it found on the wire envelope, which is
// how a `pastctl trace` request starts hop collection at its access
// point.
func (n *Node) DeliverTraced(tc obs.TraceContext, from id.Node, msg any) (any, error) {
	n.stats.MsgsIn.Add(1)
	return n.deliver(tc, from, msg)
}

// call sends msg to node to and returns its reply. A message to this
// node itself runs through deliver's switch directly: it crosses no
// network, so nothing counts it (netsim, MsgsOut, MsgsIn) and no fault
// applies. Every PAST message a node sends, to itself or to a peer,
// goes through here.
func (n *Node) call(to id.Node, msg any) (any, error) {
	if to == n.self {
		return n.deliver(obs.TraceContext{}, to, msg)
	}
	return n.net.Invoke(context.Background(), n.self, to, msg)
}

// deliver dispatches one message, incoming or sent to itself. Every
// emulated message passes through here, so the switch holds no defer: a
// case that locks unlocks explicitly before it replies.
func (n *Node) deliver(tc obs.TraceContext, from id.Node, msg any) (any, error) {
	switch m := msg.(type) {
	case *storeReplicaMsg:
		return n.handleStoreReplica(m), nil
	case *divertStoreMsg:
		return n.handleDivertStore(m), nil
	case *freeSpaceMsg:
		n.mu.Lock()
		n.freeReply.Free.Store(n.store.Free())
		n.mu.Unlock()
		return &n.freeReply, nil
	case *installPointerMsg:
		n.mu.Lock()
		n.store.SetPointer(store.Pointer{File: m.File, Target: m.Target, Size: m.Size, Role: m.Role})
		n.mu.Unlock()
		return &ackMsg{}, nil
	case *discardMsg:
		return n.handleDiscard(m)
	case *fetchMsg:
		return n.handleFetch(m), nil
	case *acquireMsg:
		return n.handleAcquire(m), nil
	case *locateSpaceMsg:
		return n.handleLocateSpace(m), nil
	case *convertToDivertedMsg:
		return n.handleConvertToDiverted(m), nil
	case *pointerCheckMsg:
		return n.handlePointerCheck(m), nil
	case *divertedHolderLeaving:
		return n.handleDivertedHolderLeaving(m), nil
	case *storeFragMsg:
		return n.handleStoreFrag(m), nil
	case *fetchFragMsg:
		return n.handleFetchFrag(m), nil
	case *checkFragMsg:
		return n.handleCheckFrag(m), nil
	case *dropFragMsg:
		return n.handleDropFrag(m), nil
	case *mapUpdateMsg:
		return n.handleMapUpdate(m), nil
	case *ClientInsert, *ClientLookup, *ClientReclaim:
		// Mutating/serving client RPCs queue at the admission gate
		// (blocking: the TCP server has a real caller to make wait).
		if n.admitCtl != nil {
			if err := n.admitCtl.Admit(context.Background()); err != nil {
				return nil, err
			}
		}
		return n.handleClientRPC(tc, msg)
	case *ClientReplicaReport, *ClientObsReport:
		// Introspection stays ungated: an operator must be able to read
		// load stats from an overloaded node, the live-fleet checker
		// must be able to audit one mid-fault, and the fleet scraper
		// must keep seeing an overloaded node's counters.
		return n.handleClientRPC(tc, msg)
	default:
		// Routed client work arriving over the network (this node is a
		// hop or the consumer for someone else's lookup/insert/reclaim)
		// is gated non-blocking: a shed surfaces as ErrOverloaded at the
		// upstream hop, which reroutes around us without evicting us.
		// Overlay control traffic — joins, pings, state exchange,
		// maintenance — is never gated.
		if n.admitCtl != nil {
			if rr, ok := msg.(*pastry.RouteRequest); ok {
				switch rr.Payload.(type) {
				case *LookupMsg, *InsertMsg, *ReclaimMsg:
					if err := n.admitCtl.TryAdmit(); err != nil {
						return nil, err
					}
				}
			}
		}
		return n.overlay.Deliver(from, msg)
	}
}

var _ netsim.Endpoint = (*Node)(nil)

// localLookup serves a lookup from this node if possible: from the
// replica store, from the cache, or by chasing a diverted-replica
// pointer (one extra RPC, as the paper charges it). A nil return means
// this node cannot serve the file and routing continues.
func (n *Node) localLookup(f id.File) *LookupReply {
	n.mu.Lock()
	if e, ok := n.store.Get(f); ok {
		n.mu.Unlock()
		if ec.IsMap(e.Content) {
			// Erasure-coded object: reconstruct from any m fragments. A
			// failed reconstruction (too few fragments reachable right
			// now) lets routing continue toward other map holders.
			return n.ecReconstruct(e)
		}
		return &LookupReply{Found: true, Size: e.Size, Content: e.Content, Cert: e.Cert}
	}
	if size, content, ok := n.cache.Get(f); ok {
		n.mu.Unlock()
		return &LookupReply{Found: true, Size: size, Content: content, FromCache: true}
	}
	p, hasPtr := n.store.GetPointer(f)
	n.mu.Unlock()
	if hasPtr {
		fr, err := netsim.ReplyAs[fetchReply](n.call(p.Target, &fetchMsg{File: f}))
		if err == nil {
			if fr.Found {
				if ec.IsMap(fr.Content) {
					// The pointer led to a diverted fragment-map replica:
					// reconstruct the object rather than serving raw map
					// bytes.
					return n.ecReconstruct(store.Entry{File: f, Size: fr.Size, Content: fr.Content, Cert: fr.Cert})
				}
				return &LookupReply{Found: true, Size: fr.Size, Content: fr.Content,
					Cert: fr.Cert, ExtraHops: 1}
			}
		}
	}
	return nil
}

// handleFetch returns the replica content for a pointer chase or a
// migration transfer.
func (n *Node) handleFetch(m *fetchMsg) *fetchReply {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.store.Get(m.File)
	if !ok {
		return &fetchReply{}
	}
	return &fetchReply{Found: true, Size: e.Size, Content: e.Content, Cert: e.Cert}
}
