// Package past implements the PAST storage utility: the paper's primary
// contribution. A past.Node couples a Pastry overlay node with a local
// replica store and a file cache, and implements the three client
// operations (Insert, Lookup, Reclaim) together with the storage
// management that is the subject of the paper:
//
//   - replica diversion (section 3.3): a node among the k numerically
//     closest to a fileId that cannot accommodate a replica diverts it to
//     a leaf-set member with maximal free space, keeping a pointer, with
//     a backup pointer at the k+1-th closest node;
//   - file diversion (section 3.4): when an insert attempt fails, the
//     client re-salts the fileId and retries in a different part of the
//     nodeId space, up to three times;
//   - replica maintenance (section 3.5): nodes re-establish the
//     "k replicas on the k closest nodes" invariant as nodes join, fail,
//     and recover, migrating replicas or installing diverted-replica
//     pointers;
//   - caching (section 4): files are cached on the nodes a request is
//     routed through, in the unused portion of the advertised disk, with
//     GreedyDual-Size replacement.
package past

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"sync"

	"past/internal/admit"
	"past/internal/cache"
	"past/internal/cachengine"
	"past/internal/cert"
	"past/internal/ec"
	"past/internal/id"
	"past/internal/netsim"
	"past/internal/obs"
	"past/internal/pastry"
	"past/internal/store"
)

// Config carries PAST's parameters on top of the Pastry configuration.
type Config struct {
	Pastry pastry.Config
	// K is the replication factor (the paper fixes k=5, chosen from the
	// availability analysis of desktop machines in Bolosky et al.).
	K int
	// TPri is the acceptance threshold for primary replicas: a node
	// rejects file D when SD/FN > TPri. Paper default 0.1.
	TPri float64
	// TDiv is the (stricter) acceptance threshold for diverted replicas.
	// Paper default 0.05.
	TDiv float64
	// MaxRetries is the number of file diversions (re-salted retries)
	// after the first failed insert attempt. Paper: 3.
	MaxRetries int
	// CachePolicy selects the cache replacement policy (default GD-S).
	CachePolicy cache.Policy
	// CacheEngine, when non-nil, tunes the node's cache engine beyond
	// the paper's single policy structure: a RAM cap and the flash
	// tier (see internal/cachengine). Its Policy is ignored:
	// CachePolicy picks the policy. Nil runs the engine in its
	// legacy-equivalent configuration — no RAM cap, no flash tier —
	// which is operation-for-operation identical to the original
	// cache.Cache, keeping the trace-driven experiments' fingerprints
	// intact.
	CacheEngine *cachengine.Config
	// VerifyCerts enables certificate generation and verification on the
	// insert/lookup/reclaim paths. Requires Issuer, and smartcards on
	// the participating nodes. The trace-driven experiments disable it,
	// as public-key operations would dominate their run time without
	// affecting any measured quantity.
	VerifyCerts bool
	// Issuer is the smartcard issuer's public key, used to verify
	// certificate chains when VerifyCerts is set.
	Issuer ed25519.PublicKey
	// NodeKeys resolves a nodeId to that node's public key. When set
	// together with VerifyCerts, clients verify the store receipts
	// returned by an insert, confirming the requested number of copies
	// was created (section 2.2).
	NodeKeys NodeKeyDirectory
	// Monitor, if non-nil, observes storage events for the experiment
	// harness.
	Monitor Monitor
	// RandomDivert replaces the paper's max-free-space choice of the
	// diverted-replica target (section 3.3.1, policy 2) with a uniformly
	// random eligible node. Used only by the ablation benchmarks.
	RandomDivert bool
	// PartialInsert lets an insert coordinator succeed with fewer than k
	// replicas when some replica-set members are unreachable (at least
	// one replica must still be stored). The shortfall is a repair debt
	// that replica maintenance settles once the leaf set heals; without
	// this flag any unreachable member aborts the attempt.
	PartialInsert bool
	// Tracer, when non-nil, samples client operations started at this
	// node (every Nth, deterministically) and records their per-hop
	// route traces. Nil traces nothing and costs nothing.
	Tracer *obs.Tracer
	// ECMode, when non-nil, switches inserts to erasure-coded storage:
	// the coordinator RS(Data, Parity)-encodes the object, spreads the
	// fragments over distinct leaf-set members, and k-replicates only a
	// fragment map. Lookups reconstruct from any Data fragments; lost
	// fragments are re-created by the lazy repair engine during
	// maintenance. Nil keeps pure k-way replication.
	ECMode *ec.Params
	// ECRepairBudget caps the bytes one maintenance pass may spend on
	// fragment repair (fetching survivors plus placing the rebuilt
	// shard). Work beyond the cap is deferred to later passes. Zero
	// means uncapped.
	ECRepairBudget int64
	// Admit, when non-nil, enables per-node admission control: routed
	// client work (lookups, inserts, reclaims arriving over the
	// network) and client RPCs are gated by a token bucket with a
	// bounded queue; excess load is shed with netsim.ErrOverloaded.
	// Nil admits everything — exactly the pre-admission behavior.
	// Maintenance, join, and keep-alive traffic is never gated:
	// shedding repair work under load would trade overload for
	// durability loss.
	Admit *admit.Config
}

// DefaultConfig returns the paper's parameters: k=5, tpri=0.1,
// tdiv=0.05, three retries, GD-S caching with c=1, b=4, l=32.
func DefaultConfig() Config {
	return Config{
		Pastry:      pastry.DefaultConfig(),
		K:           5,
		TPri:        0.1,
		TDiv:        0.05,
		MaxRetries:  3,
		CachePolicy: cache.GDS,
	}
}

// withDefaults fills parameters whose zero value is never meaningful.
// TPri, TDiv, and MaxRetries are taken literally: tpri=1/tdiv=0 with no
// retries is exactly the paper's no-diversion baseline (section 5.1),
// so zero must remain expressible. Use DefaultConfig for paper defaults.
func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 5
	}
	return c
}

// NodeKeyDirectory resolves node identities to their public keys. The
// paper's smartcard scheme makes every node's key verifiable against
// the issuer; this interface abstracts how a deployment distributes
// them (the emulation uses an in-memory registry).
type NodeKeyDirectory interface {
	NodeKey(n id.Node) (ed25519.PublicKey, bool)
}

// Monitor observes storage events; the experiment harness uses it to
// maintain utilization and diversion-ratio series.
type Monitor interface {
	// ReplicaStored fires when a node stores a replica (primary or
	// diverted).
	ReplicaStored(f id.File, size int64, diverted bool)
	// ReplicaDiscarded fires when a node discards a replica.
	ReplicaDiscarded(f id.File, size int64, diverted bool)
}

// Node is a PAST storage node.
type Node struct {
	cfg     Config
	self    id.Node // overlay.ID(), read on every outgoing message
	overlay *pastry.Node
	net     netsim.Net
	stats   *obs.NodeStats

	mu    sync.Mutex
	store store.Backend
	cache *cachengine.Engine
	card  *cert.Smartcard
	rng   *rand.Rand

	// freeReply is the answer to every free-space poll, its Free
	// updated in place under mu.
	freeReply freeSpaceReply

	// erasure-coded storage (always initialized; active when
	// Config.ECMode is set, but any node can hold fragments and serve
	// repair for objects inserted by EC-mode coordinators)
	frags          *ec.FragStore
	repairq        *ec.RepairQueue
	ecInserts      int64 // EC-coordinated inserts (under mu)
	ecReconstructs int64 // lookups served by fragment reconstruction (under mu)

	// admission control (nil when Config.Admit is nil)
	admitCtl *admit.Controller

	// maintenance state
	maintaining     bool
	maintainPending bool
	leaving         bool  // graceful departure in progress: refuse new replicas
	belowK          int64 // replicas that could not be re-created anywhere
}

// NewWithStore creates a PAST node over a storage backend — a
// logstore.Store for a persistent daemon, the in-memory store.New for
// emulation. The caller must register the node as the network endpoint
// for nid and then call Bootstrap or Join on the overlay (via the
// Overlay accessor). It panics if the cache engine cannot start, which
// is only possible with a misconfigured flash tier — callers that
// enable flash should use NewWithStoreEngine and handle the error.
func NewWithStore(nid id.Node, net netsim.Net, cfg Config, backend store.Backend, seed int64) *Node {
	n, err := NewWithStoreEngine(nid, net, cfg, backend, seed)
	if err != nil {
		panic(err)
	}
	return n
}

// cacheEngineConfig resolves the node's effective cachengine.Config:
// the optional CacheEngine tuning with Policy taken from CachePolicy.
func (c Config) cacheEngineConfig() cachengine.Config {
	var ec cachengine.Config
	if c.CacheEngine != nil {
		ec = *c.CacheEngine
	}
	ec.Policy = c.CachePolicy
	return ec
}

// NewWithStoreEngine is NewWithStore surfacing cache-engine startup
// errors (a flash tier whose directory cannot be opened).
func NewWithStoreEngine(nid id.Node, net netsim.Net, cfg Config, backend store.Backend, seed int64) (*Node, error) {
	cfg = cfg.withDefaults()
	eng, err := cachengine.New(cfg.cacheEngineConfig())
	if err != nil {
		return nil, fmt.Errorf("past: cache engine: %w", err)
	}
	if cfg.ECMode != nil {
		if err := cfg.ECMode.Validate(); err != nil {
			return nil, err
		}
	}
	n := &Node{
		cfg:     cfg,
		self:    nid,
		stats:   &obs.NodeStats{},
		store:   backend,
		cache:   eng,
		rng:     rand.New(rand.NewSource(seed)),
		frags:   ec.NewFragStore(),
		repairq: ec.NewRepairQueue(seed ^ 0xec0de),
	}
	// Both layers share the instrumented view of the network, so every
	// outgoing RPC — routing, maintenance, diversion — is accounted.
	n.net = obs.InstrumentNet(net, n.stats)
	n.overlay = pastry.New(nid, n.net, cfg.Pastry, (*app)(n), seed^0x5eed)
	n.overlay.OnLeafSetChange = n.maintainReplicas
	if cfg.Admit != nil {
		n.admitCtl = admit.New(*cfg.Admit)
	}
	n.cache.SetLimit(n.cacheSpaceLocked())
	if cfg.K > n.overlay.Config().L/2+1 {
		panic(fmt.Sprintf("past: k=%d exceeds l/2+1=%d", cfg.K, n.overlay.Config().L/2+1))
	}
	return n, nil
}

// Overlay returns the underlying Pastry node (for Bootstrap/Join and
// state inspection).
func (n *Node) Overlay() *pastry.Node { return n.overlay }

// ID returns the node's identifier.
func (n *Node) ID() id.Node { return n.self }

// Capacity returns the advertised storage capacity in bytes.
func (n *Node) Capacity() int64 { return n.store.Capacity() }

// StoredBytes returns the bytes occupied by replicas on this node.
func (n *Node) StoredBytes() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.store.Used()
}

// Cache returns the node's cache engine, for the daemon's shutdown
// path (flash teardown) and the load driver's tier statistics.
func (n *Node) Cache() *cachengine.Engine { return n.cache }

// StoreSnapshot returns the node's replica entries and pointers, for
// invariant checking in tests and the state printer.
func (n *Node) StoreSnapshot() ([]store.Entry, []store.Pointer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.store.Entries(), n.store.Pointers()
}

// cacheSpaceLocked is the cache's grant: the space neither replicas
// nor fragments occupy. Caller holds n.mu.
func (n *Node) cacheSpaceLocked() int64 { return n.store.Free() - n.frags.Bytes() }

// addReplicaLocked stores a replica and gives the cache whatever space
// remains. Caller holds n.mu.
func (n *Node) addReplicaLocked(e store.Entry) error {
	// Replicas displace cached copies: shrink the cache first so the
	// store sees the space as free. The store charges exactly e.Size,
	// so once the add succeeds this is already the grant.
	grant := n.cacheSpaceLocked()
	n.cache.SetLimit(grant - e.Size)
	if err := n.store.Add(e); err != nil {
		n.cache.SetLimit(grant)
		return err
	}
	// The replica must not also linger as a cached copy.
	n.cache.Remove(e.File)
	n.stats.ReplicasStored.Add(1)
	if e.Kind == store.DivertedIn {
		n.stats.DivertedIn.Add(1)
	}
	if n.cfg.Monitor != nil {
		n.cfg.Monitor.ReplicaStored(e.File, e.Size, e.Kind == store.DivertedIn)
	}
	return nil
}

// removeReplicaLocked discards a replica and returns the space to the
// cache. Caller holds n.mu.
func (n *Node) removeReplicaLocked(f id.File) (store.Entry, bool) {
	e, ok := n.store.Remove(f)
	if !ok {
		return store.Entry{}, false
	}
	n.cache.SetLimit(n.cacheSpaceLocked())
	n.stats.ReplicasDropped.Add(1)
	if n.cfg.Monitor != nil {
		n.cfg.Monitor.ReplicaDiscarded(e.File, e.Size, e.Kind == store.DivertedIn)
	}
	return e, true
}

// StatsSnapshot returns the full observability snapshot for this node:
// the registry's counters plus the gauges owned by the store, cache, and
// overlay. This is what the metrics endpoint, the stats RPC, and the
// experiment drivers consume.
func (n *Node) StatsSnapshot() obs.Snapshot {
	snap := n.stats.Snapshot()
	n.mu.Lock()
	snap.Set(obs.CtrStoreBytes, n.store.Used())
	snap.Set(obs.CtrStoreCapacity, n.store.Capacity())
	snap.Set(obs.CtrStoreReplicas, int64(n.store.Len()))
	snap.Set(obs.CtrStorePointers, int64(len(n.store.Pointers())))
	snap.Set(obs.CtrCacheBytes, n.cache.Used())
	snap.Set(obs.CtrCacheEntries, int64(n.cache.Len()))
	// Legacy cache series (hits = RAM + flash), plus the engine's own
	// per-tier counters under cachengine_* names.
	cst := n.cache.Stats()
	snap.Set(obs.CtrCacheHits, cst.Hits())
	snap.Set(obs.CtrCacheMisses, cst.Misses)
	snap.Set(obs.CtrCacheEvictions, cst.Evictions)
	for name, v := range n.cache.ObsCounters() {
		snap.Set(name, v)
	}
	snap.Set(obs.CtrBelowKEvents, n.belowK)
	snap.Set(obs.CtrECFragments, int64(n.frags.Len()))
	snap.Set(obs.CtrECFragmentBytes, n.frags.Bytes())
	snap.Set(obs.CtrECFragReads, n.frags.Reads())
	snap.Set(obs.CtrECCRCFailures, n.frags.CRCFailures())
	snap.Set(obs.CtrECInserts, n.ecInserts)
	snap.Set(obs.CtrECReconstructs, n.ecReconstructs)
	for name, v := range n.repairq.ObsCounters() {
		snap.Set(name, v)
	}
	// Backends with their own instrumentation (the log-structured store)
	// export it through the same snapshot.
	if src, ok := n.store.(obs.CounterSource); ok {
		for name, v := range src.ObsCounters() {
			snap.Set(name, v)
		}
	}
	n.mu.Unlock()
	snap.Set(obs.CtrReroutes, n.overlay.Reroutes())
	snap.Set(obs.CtrLeafRepairs, n.overlay.LeafRepairs())
	snap.Set(obs.CtrOverloadHops, n.overlay.OverloadHops())
	joined := int64(0)
	if n.overlay.Joined() {
		joined = 1
	}
	snap.Set(obs.CtrOverlayJoined, joined)
	snap.Set(obs.CtrLeafSetSize, int64(len(n.overlay.LeafSet())))
	snap.Set(obs.CtrTableEntries, int64(n.overlay.TableSize()))
	if n.admitCtl != nil {
		for name, v := range n.admitCtl.ObsCounters() {
			snap.Set(name, v)
		}
	}
	return snap
}

// issueStoreReceipt signs a store receipt if a smartcard is installed.
func (n *Node) issueStoreReceipt(f id.File) *cert.StoreReceipt {
	if n.card == nil {
		return nil
	}
	return n.card.IssueStoreReceipt(f)
}
