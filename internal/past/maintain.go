package past

import (
	"past/internal/cert"
	"past/internal/id"
	"past/internal/netsim"
	"past/internal/store"
)

// Replica maintenance (section 3.5). The storage invariant — k replicas
// of every file on the k nodes with nodeIds closest to its fileId — must
// survive node arrival, failure, and recovery. Pastry's leaf-set
// adjustment is the trigger: whenever this node's leaf set changes, it
// rescans its file table. For every primary replica it holds, it checks
// that each member of the (new) replica set has the file, offering it to
// members that lack it; a member acquires the file by storing it, by
// diverting it within its leaf set, by the section-3.5 overflow search
// through its most distant leaf members, or — when the offering holder
// has just ceased to be one of the k closest — by installing a
// diverted-replica pointer to the holder, which then keeps the replica
// (the "gradual migration" optimization). Replicas this node is no
// longer responsible for are discarded unless a new member pointed at
// them.

// Maintain forces one full replica-maintenance pass, independent of
// leaf-set changes. Drivers call it as a periodic anti-entropy round:
// under message loss the change-triggered maintenance can be starved
// (its RPCs dropped, the change long past), and only a periodic re-scan
// restores the invariant.
func (n *Node) Maintain() { n.maintainReplicas() }

// maintainReplicas is installed as the overlay's OnLeafSetChange hook.
// Re-entrant invocations (a maintenance RPC can itself reveal a dead
// node and mutate the leaf set again) are coalesced into one more pass.
func (n *Node) maintainReplicas() {
	if !n.overlay.Joined() {
		return
	}
	n.mu.Lock()
	if n.maintaining {
		n.maintainPending = true
		n.mu.Unlock()
		return
	}
	n.maintaining = true
	n.mu.Unlock()
	for {
		n.maintainOnce()
		n.mu.Lock()
		if !n.maintainPending {
			n.maintaining = false
			n.mu.Unlock()
			return
		}
		n.maintainPending = false
		n.mu.Unlock()
	}
}

func (n *Node) maintainOnce() {
	n.mu.Lock()
	entries := n.store.Entries()
	pointers := n.store.Pointers()
	n.mu.Unlock()
	k := n.cfg.K

	for _, e := range entries {
		if e.Kind != store.Primary {
			// Diverted-in replicas are the referring node's charge — but
			// an orphaned one (its live owner denies the pointer, e.g.
			// because the owner re-replicated during a partition and
			// migrated the file home after it healed) would leak storage
			// forever. Adopt it as primary so the normal path below can
			// migrate or discard it. A dead or unreachable owner is never
			// treated as a denial: it may recover with its pointer intact.
			if e.Kind == store.DivertedIn && n.net.Alive(e.Owner) {
				pc, err := netsim.ReplyAs[pointerCheckReply](n.call(e.Owner, &pointerCheckMsg{File: e.File, Holder: n.ID()}))
				if err == nil && !pc.Valid {
					n.mu.Lock()
					if cur, ok := n.store.Get(e.File); ok && cur.Kind == store.DivertedIn {
						n.removeReplicaLocked(e.File)
						cur.Kind = store.Primary
						cur.Owner = id.Node{}
						_ = n.addReplicaLocked(cur)
						n.maintainPending = true // re-scan with the new role
					}
					n.mu.Unlock()
				}
			}
			continue
		}
		key := e.File.Key()
		rs := n.overlay.ReplicaSet(key, k)
		selfIn := containsNode(rs, n.ID())
		if !selfIn {
			// The local approximation is unreliable when this node's leaf
			// set does not span the key (a replica stranded far away by a
			// partition): ask the key's owner for the authoritative set,
			// or offers would go to wrong nodes and strand more copies.
			if reply, _, err := n.overlay.Route(key, &replicaSetQuery{K: k}); err == nil {
				if rq, ok := reply.(*replicaSetReply); ok && len(rq.Set) > 0 {
					rs = rq.Set
					selfIn = containsNode(rs, n.ID())
				}
			}
		}
		covered := 0 // members confirmed to hold a distinct copy
		for _, r := range rs {
			if r == n.ID() {
				continue
			}
			ar, err := netsim.ReplyAs[acquireReply](n.call(r, &acquireMsg{
				File: e.File, Key: key, Size: e.Size, K: k,
				Holder: n.ID(), HolderLeaving: !selfIn,
			}))
			if err != nil {
				continue // dead member; its failure will trigger repair
			}
			switch ar.Status {
			case acquireAlreadyHave, acquireStored:
				covered++
			case acquireFailed:
				n.mu.Lock()
				n.belowK++
				n.mu.Unlock()
			}
		}
		if !selfIn && covered > 0 {
			// Discard unless a newcomer installed a pointer to us (the
			// entry has been converted to diverted-in) — and never when
			// no member could confirm a copy, which would risk dropping
			// the last replica instead of temporarily exceeding k.
			n.mu.Lock()
			if cur, ok := n.store.Stat(e.File); ok && cur.Kind == store.Primary {
				n.removeReplicaLocked(e.File)
			}
			n.mu.Unlock()
		}
	}

	// Pointer upkeep: nodes holding diverted replicas and the nodes
	// referring to them exchange keep-alives even when leaf sets drift
	// apart; a dead target means the replica is gone and, for a
	// diverted-out pointer, that this node must re-create its replica.
	for _, p := range pointers {
		if !n.net.Alive(p.Target) {
			n.mu.Lock()
			n.store.RemovePointer(p.File)
			n.mu.Unlock()
			if p.Role == store.DivertedOut {
				n.reacquireSelf(p.File)
			}
			continue
		}
		if p.Role == store.DivertedOut {
			n.migratePointerHome(p)
		}
	}

	// Fragment-level anti-entropy + lazy repair for erasure-coded
	// objects whose map this node leads (nil frags only on bare
	// struct-literal nodes in tests).
	if n.frags != nil {
		n.ecMaintain()
	}
}

// containsNode reports whether ids includes nid.
func containsNode(ids []id.Node, nid id.Node) bool {
	for _, r := range ids {
		if r == nid {
			return true
		}
	}
	return false
}

// migratePointerHome implements the paper's gradual migration: when
// space has freed up locally, a diverted replica is pulled back to the
// referring node and the remote copy discarded, shortening future
// lookups and releasing the remote node's space.
func (n *Node) migratePointerHome(p store.Pointer) {
	n.mu.Lock()
	can := n.store.CanAccept(p.Size, n.cfg.TPri)
	n.mu.Unlock()
	if !can {
		return
	}
	content, fc, size, ok := n.fetchFrom(p.Target, p.File)
	if !ok {
		return
	}
	n.mu.Lock()
	if _, still := n.store.GetPointer(p.File); !still {
		n.mu.Unlock()
		return
	}
	err := n.addReplicaLocked(store.Entry{
		File: p.File, Size: size, Kind: store.Primary, Content: content, Cert: fc,
	})
	if err == nil {
		n.store.RemovePointer(p.File)
	}
	n.mu.Unlock()
	if err == nil {
		_, _ = n.call(p.Target, &discardMsg{File: p.File, Abort: true})
	}
}

// fetchFrom retrieves replica content (and certificate) from a holder.
func (n *Node) fetchFrom(holder id.Node, f id.File) (content []byte, fc *cert.FileCertificate, size int64, ok bool) {
	fr, err := netsim.ReplyAs[fetchReply](n.call(holder, &fetchMsg{File: f}))
	if err != nil || !fr.Found {
		return nil, nil, 0, false
	}
	return fr.Content, fr.Cert, fr.Size, true
}

// handleAcquire runs at a node that has (possibly) just become one of
// the k closest for a file another node holds.
func (n *Node) handleAcquire(m *acquireMsg) *acquireReply {
	n.mu.Lock()
	if n.leaving {
		n.mu.Unlock()
		return &acquireReply{Status: acquireFailed}
	}
	if _, ok := n.store.Stat(m.File); ok {
		n.mu.Unlock()
		return &acquireReply{Status: acquireAlreadyHave}
	}
	if _, ok := n.store.GetPointer(m.File); ok {
		n.mu.Unlock()
		return &acquireReply{Status: acquireAlreadyHave}
	}
	canLocal := n.store.CanAccept(m.Size, n.cfg.TPri)
	n.mu.Unlock()

	if canLocal {
		content, fc, size, ok := n.fetchFrom(m.Holder, m.File)
		if ok {
			n.mu.Lock()
			err := n.addReplicaLocked(store.Entry{
				File: m.File, Size: size, Kind: store.Primary, Content: content, Cert: fc,
			})
			n.mu.Unlock()
			if err == nil {
				return &acquireReply{Status: acquireStored}
			}
		}
		return &acquireReply{Status: acquireFailed}
	}

	if m.HolderLeaving {
		// Given the cost of copying file data relative to wide-area
		// bandwidth, install a pointer and require the leaving holder to
		// keep the replica; it is semantically a replica diversion.
		n.mu.Lock()
		n.store.SetPointer(store.Pointer{File: m.File, Target: m.Holder, Size: m.Size, Role: store.DivertedOut})
		n.mu.Unlock()
		if _, err := n.call(m.Holder, &convertToDivertedMsg{File: m.File, Owner: n.ID()}); err != nil {
			n.mu.Lock()
			n.store.RemovePointer(m.File)
			n.mu.Unlock()
			return &acquireReply{Status: acquireFailed}
		}
		return &acquireReply{Status: acquirePointer}
	}

	// The holder stays responsible for its own replica, so this node
	// needs a distinct copy: divert within the leaf set.
	content, fc, size, ok := n.fetchFrom(m.Holder, m.File)
	if !ok {
		return &acquireReply{Status: acquireFailed}
	}
	sm := &storeReplicaMsg{File: m.File, Key: m.Key, Size: size, Content: content, Cert: fc, K: m.K}
	if r := n.divertReplica(sm); r.Status == storeOKDiverted {
		return &acquireReply{Status: acquireStored}
	}

	// Section 3.5 overflow: ask the two most distant leaf-set members to
	// locate a node within their leaf sets; 2l nodes are reachable.
	lo, hi := n.overlay.LeafSides()
	var distant []id.Node
	if len(lo) > 0 {
		distant = append(distant, lo[len(lo)-1])
	}
	if len(hi) > 0 {
		distant = append(distant, hi[len(hi)-1])
	}
	for _, far := range distant {
		ls, err := netsim.ReplyAs[locateSpaceReply](n.call(far, &locateSpaceMsg{File: m.File, Size: size}))
		if err != nil || !ls.OK {
			continue
		}
		dr, err := netsim.ReplyAs[divertStoreReply](n.call(ls.Candidate,
			&divertStoreMsg{File: m.File, Size: size, Content: content, Cert: fc, Owner: n.ID()}))
		if err != nil {
			continue
		}
		if dr.Status == divertOK {
			n.mu.Lock()
			n.store.SetPointer(store.Pointer{File: m.File, Target: ls.Candidate, Size: size, Role: store.DivertedOut})
			n.mu.Unlock()
			return &acquireReply{Status: acquireStored}
		}
	}

	// No space anywhere reachable: the replica count drops below k until
	// nodes or disks are added (the caller counts this).
	return &acquireReply{Status: acquireFailed}
}

// handlePointerCheck answers a diverted-replica holder's liveness probe:
// whether this node still points at the holder for the file.
func (n *Node) handlePointerCheck(m *pointerCheckMsg) *pointerCheckReply {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.store.GetPointer(m.File)
	return &pointerCheckReply{Valid: ok && p.Target == m.Holder}
}

// handleLocateSpace searches this node's leaf set (and itself) for a
// node able to hold a diverted replica of the given size, returning the
// one with the most free space.
func (n *Node) handleLocateSpace(m *locateSpaceMsg) *locateSpaceReply {
	var best id.Node
	var bestFree int64 = -1

	n.mu.Lock()
	if n.store.CanAccept(m.Size, n.cfg.TDiv) {
		if _, held := n.store.Stat(m.File); !held {
			best, bestFree = n.ID(), n.store.Free()
		}
	}
	n.mu.Unlock()

	for _, member := range n.overlay.LeafSet() {
		fr, err := netsim.ReplyAs[freeSpaceReply](n.call(member, &freeSpaceMsg{}))
		if err != nil {
			continue
		}
		if free := fr.Free.Load(); free > 0 && free > bestFree && store.Accepts(m.Size, free, n.cfg.TDiv) {
			best, bestFree = member, free
		}
	}
	if bestFree < 0 {
		return &locateSpaceReply{}
	}
	return &locateSpaceReply{OK: true, Candidate: best}
}

// handleConvertToDiverted re-labels a (former primary) replica as held
// on behalf of Owner, which has installed a pointer to it.
func (n *Node) handleConvertToDiverted(m *convertToDivertedMsg) any {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.store.Get(m.File)
	if !ok {
		return &ackMsg{}
	}
	// Re-add with the new role; accounting events reflect the change.
	n.removeReplicaLocked(m.File)
	e.Kind = store.DivertedIn
	e.Owner = m.Owner
	_ = n.addReplicaLocked(e)
	return &ackMsg{}
}

// reacquireSelf re-creates this node's replica after the node holding
// its diverted copy failed: fetch the file from any live replica via a
// normal lookup, then store it (or divert it again).
func (n *Node) reacquireSelf(f id.File) {
	reply, _, err := n.overlay.Route(f.Key(), &LookupMsg{File: f})
	if err != nil {
		n.mu.Lock()
		n.belowK++
		n.mu.Unlock()
		return
	}
	lr, ok := reply.(*LookupReply)
	if !ok || !lr.Found {
		n.mu.Lock()
		n.belowK++
		n.mu.Unlock()
		return
	}
	sm := &storeReplicaMsg{File: f, Key: f.Key(), Size: lr.Size, Content: lr.Content, Cert: lr.Cert, K: n.cfg.K}
	if r, err := netsim.ReplyAs[storeReplicaReply](n.call(n.ID(), sm)); err != nil || r.Status == storeFailed {
		n.mu.Lock()
		n.belowK++
		n.mu.Unlock()
	}
}
