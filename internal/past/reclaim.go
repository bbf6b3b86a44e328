package past

import (
	"context"
	"fmt"

	"past/internal/cert"
	"past/internal/ec"
	"past/internal/id"
	"past/internal/netsim"
	"past/internal/store"
)

// ReclaimResult reports the outcome of a Reclaim.
type ReclaimResult struct {
	// Found reports whether any replica was discarded.
	Found bool
	// Freed is the total bytes released across replicas.
	Freed int64
	// Receipts holds the reclaim receipts when certificates are enabled;
	// the client verifies them for quota credits.
	Receipts []*cert.ReclaimReceipt
}

// Reclaim releases the storage occupied by the k replicas of the file.
// Per the paper's weak semantics, reclaim is not a delete: cached copies
// may continue to serve lookups until they age out of the caches, but
// PAST no longer guarantees the file can be retrieved. owner may be nil
// when certificate verification is disabled.
//
// Reclaim assumes the file was stored with the configured replication
// factor; a file inserted with a larger per-insert K is only guaranteed
// to be reclaimed on the K+1 closest nodes the coordinator covers.
func (n *Node) Reclaim(f id.File, owner *cert.Smartcard) (*ReclaimResult, error) {
	return n.ReclaimContext(context.Background(), f, owner)
}

// ReclaimContext is Reclaim bounded by a context.
func (n *Node) ReclaimContext(ctx context.Context, f id.File, owner *cert.Smartcard) (*ReclaimResult, error) {
	n.stats.Reclaims.Add(1)
	var rc *cert.ReclaimCertificate
	if owner != nil {
		rc = owner.IssueReclaimCert(f)
	} else if n.cfg.VerifyCerts {
		return nil, fmt.Errorf("past: reclaim %s: certificate verification requires an owner card", f.Short())
	}
	reply, _, _, err := n.overlay.RouteContext(ctx, f.Key(), &ReclaimMsg{File: f, Cert: rc})
	rr, err := netsim.ReplyAs[ReclaimReply](reply, err)
	if err != nil {
		return nil, fmt.Errorf("past: reclaim %s: %w", f.Short(), err)
	}
	res := &ReclaimResult{Found: rr.Found, Freed: rr.Freed, Receipts: rr.Receipts}
	if owner != nil && rr.Found {
		if n.cfg.VerifyCerts && n.cfg.NodeKeys != nil {
			// The paper's client verifies each reclaim receipt for a
			// credit against the storage quota: only bytes vouched for
			// by a correctly signed receipt are credited.
			var credited int64
			for _, r := range rr.Receipts {
				if r.FileID != f {
					continue
				}
				pub, ok := n.cfg.NodeKeys.NodeKey(r.Node)
				if !ok || r.Verify(pub) != nil {
					continue
				}
				credited += r.Size
			}
			owner.Quota().Credit(credited)
		} else {
			owner.Quota().Credit(rr.Freed)
		}
	}
	return res, nil
}

// coordinateReclaim runs at the first node among the k closest: it
// instructs the k+1 closest nodes (including C, which may hold a backup
// pointer) to discard their replicas and pointers.
func (n *Node) coordinateReclaim(key id.Node, m *ReclaimMsg) *ReclaimReply {
	rep := &ReclaimReply{}
	// An erasure-coded object also has fragments spread over the leaf
	// set; reclaim them before the map replicas disappear.
	n.mu.Lock()
	e, held := n.store.Get(m.File)
	n.mu.Unlock()
	if held && ec.IsMap(e.Content) {
		if fmap, err := ec.DecodeMap(e.Content); err == nil {
			for idx, h := range fmap.Holders {
				_, _ = n.call(h, &dropFragMsg{File: m.File, Index: idx})
				rep.Freed += int64(fmap.ShardSize)
			}
		}
	}
	// k+1 to reach the backup-pointer node C as well.
	for _, member := range n.overlay.ReplicaSet(key, n.cfg.K+1) {
		dr, err := netsim.ReplyAs[discardReply](n.call(member, &discardMsg{File: m.File, Cert: m.Cert}))
		if err != nil {
			continue
		}
		if dr.Had {
			rep.Found = true
			rep.Freed += dr.Size
			if dr.Receipt != nil {
				rep.Receipts = append(rep.Receipts, dr.Receipt)
			}
		}
	}
	return rep
}

// handleDiscard removes this node's replica of, and/or pointer to, a
// file. Reclaims carry a certificate that is verified against the
// stored file certificate; insert aborts (Abort=true) need none, since
// they only ever remove replicas created moments ago by the aborting
// coordinator.
func (n *Node) handleDiscard(m *discardMsg) (any, error) {
	n.mu.Lock()
	if n.cfg.VerifyCerts && !m.Abort {
		if m.Cert == nil {
			n.mu.Unlock()
			return nil, fmt.Errorf("past: discard %s: missing reclaim certificate", m.File.Short())
		}
		var fc *cert.FileCertificate
		if e, ok := n.store.Stat(m.File); ok {
			fc = e.Cert
		}
		if err := m.Cert.Verify(n.cfg.Issuer, fc); err != nil {
			n.mu.Unlock()
			return nil, fmt.Errorf("past: discard %s: %w", m.File.Short(), err)
		}
	}

	rep := &discardReply{}
	if e, ok := n.removeReplicaLocked(m.File); ok {
		rep.Had = true
		rep.Size += e.Size
	}
	ptr, hadPtr := n.store.RemovePointer(m.File)
	n.mu.Unlock()

	if hadPtr && ptr.Role == store.DivertedOut {
		// Chase the pointer so the diverted replica is discarded too.
		dr, err := netsim.ReplyAs[discardReply](n.call(ptr.Target, &discardMsg{File: m.File, Cert: m.Cert, Abort: m.Abort}))
		if err == nil && dr.Had {
			rep.Had = true
			rep.Size += dr.Size
		}
	}
	if rep.Had && n.card != nil {
		rep.Receipt = n.card.IssueReclaimReceipt(m.File, rep.Size)
	}
	return rep, nil
}
