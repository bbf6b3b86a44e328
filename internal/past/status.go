package past

import (
	"past/internal/id"
	"past/internal/store"
)

// Status is an operator-visible snapshot of one node, served to remote
// clients via the ClientStatus RPC (pastctl status).
type Status struct {
	ID       id.Node
	Joined   bool
	Capacity int64
	Used     int64
	Free     int64

	Replicas     int // total replicas held
	DivertedIn   int // held on behalf of other nodes
	PointersOut  int // diverted-out references
	BackupPtrs   int // k+1-th-closest backup references
	CacheBytes   int64
	CacheEntries int
	CacheHits    int64
	CacheMisses  int64

	LeafSetSize  int
	TableEntries int
	BelowKEvents int64
}

// Status collects the snapshot.
func (n *Node) Status() Status {
	n.mu.Lock()
	st := Status{
		ID:       n.overlay.ID(),
		Capacity: n.store.Capacity(),
		Used:     n.store.Used(),
		Free:     n.store.Free(),
		Replicas: n.store.Len(),

		CacheBytes:   n.cache.Used(),
		CacheEntries: n.cache.Len(),
		BelowKEvents: n.belowK,
	}
	cst := n.cache.Stats()
	st.CacheHits, st.CacheMisses = cst.Hits(), cst.Misses
	for _, e := range n.store.Entries() {
		if e.Kind == store.DivertedIn {
			st.DivertedIn++
		}
	}
	for _, p := range n.store.Pointers() {
		if p.Role == store.DivertedOut {
			st.PointersOut++
		} else {
			st.BackupPtrs++
		}
	}
	n.mu.Unlock()

	st.Joined = n.overlay.Joined()
	st.LeafSetSize = len(n.overlay.LeafSet())
	st.TableEntries = n.overlay.TableSize()
	return st
}

// ClientStatus requests a node's Status snapshot.
type ClientStatus struct{}

// ClientStatusReply carries it back.
type ClientStatusReply struct {
	Status Status
}
