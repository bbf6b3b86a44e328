package past

import (
	"past/internal/id"
	"past/internal/netsim"
	"past/internal/store"
)

// Graceful departure. The paper's maintenance recovers from abrupt
// failures (section 3.5); an operator-initiated shutdown can do better:
// while still reachable, the node copies each primary replica to the
// node that becomes responsible for it, asks the owners of the diverted
// replicas it holds to re-home them, and announces its departure so
// routes avoid it immediately. pastd runs this on SIGTERM.

// divertedHolderLeaving tells the owner of a diverted replica that the
// node holding it is departing, so the owner must re-create the replica
// now (it can still fetch the content from the departing holder).
type divertedHolderLeaving struct {
	File id.File
}

func (n *Node) handleDivertedHolderLeaving(m *divertedHolderLeaving) any {
	n.mu.Lock()
	p, ok := n.store.GetPointer(m.File)
	if ok && p.Role == store.DivertedOut {
		n.store.RemovePointer(m.File)
	}
	n.mu.Unlock()
	if ok {
		n.reacquireSelf(m.File)
	}
	return &ackMsg{}
}

// LeaveResult reports the departure hand-off.
type LeaveResult struct {
	// Offloaded counts replicas successfully re-homed.
	Offloaded int
	// Failed counts replicas that could not be placed anywhere (the
	// replica set drops below k for those files until maintenance or
	// new capacity catches up).
	Failed int
	// OwnersNotified counts diverted-replica owners told to re-home.
	OwnersNotified int
}

// Leave gracefully removes this node from the storage network. After it
// returns, the caller should take the node off the network (close its
// transport or deregister its endpoint).
func (n *Node) Leave() *LeaveResult {
	res := &LeaveResult{}
	n.mu.Lock()
	n.leaving = true // refuse new replicas while handing off
	entries := n.store.Entries()
	n.mu.Unlock()
	k := n.cfg.K

	for _, e := range entries {
		switch e.Kind {
		case store.Primary:
			key := e.File.Key()
			// The nodes responsible once we are gone: the k closest
			// among our leaf set, excluding ourselves.
			placed := false
			for _, r := range n.overlay.ReplicaSet(key, k+1) {
				if r == n.ID() {
					continue
				}
				ar, err := netsim.ReplyAs[acquireReply](n.call(r, &acquireMsg{
					File: e.File, Key: key, Size: e.Size, K: k,
					Holder: n.ID(), HolderLeaving: false, // force a real copy
				}))
				if err != nil {
					continue
				}
				switch ar.Status {
				case acquireAlreadyHave, acquireStored:
					placed = true
				}
			}
			if placed {
				res.Offloaded++
			} else {
				res.Failed++
				n.mu.Lock()
				n.belowK++
				n.mu.Unlock()
			}
		case store.DivertedIn:
			// Tell the referring node to re-home its replica while our
			// copy is still fetchable.
			if !e.Owner.IsZero() {
				if _, err := n.call(e.Owner, &divertedHolderLeaving{File: e.File}); err == nil {
					res.OwnersNotified++
				}
			}
		}
	}

	n.overlay.Depart()
	return res
}
