package past

import (
	"context"
	"fmt"

	"past/internal/cert"
	"past/internal/ec"
	"past/internal/id"
	"past/internal/netsim"
	"past/internal/obs"
	"past/internal/store"
)

// Insert failures are reported in-band (InsertResult.OK=false with a
// Reason) rather than as errors, because a failed insertion is an
// expected high-utilization outcome the caller reacts to — the paper's
// recourse is fragmenting the file or lowering k (section 3.4, and see
// internal/frag). The error return is reserved for operational faults
// (unroutable network, quota exhaustion, invalid parameters).

// InsertSpec describes a file to insert.
type InsertSpec struct {
	// Name is the file's textual name, one input to the fileId hash.
	Name string
	// Size is the file size in bytes. If Content is non-nil, Size is
	// ignored and len(Content) is used.
	Size int64
	// Content is the file payload; nil runs size-only accounting (the
	// trace experiments). Stores copy it, but caches and fragment tables
	// reached without a network copy (netsim, the inserting node itself)
	// keep this slice, or fragments cut from it, by reference: it must
	// not be modified once Insert is called.
	Content []byte
	// K overrides the configured replication factor when positive.
	K int
	// Owner, when set, issues and signs the file certificate and is
	// debited size*k quota bytes per the paper's insert semantics.
	Owner *cert.Smartcard
	// Salt seeds fileId generation; zero means draw one at random. File
	// diversion retries increment it.
	Salt uint64
	// Created is the owner-asserted creation time for the certificate.
	Created int64
	// borrowed marks Content as a view of a received request frame
	// (ClientInsert over TCP): every node that keeps it copies it.
	borrowed bool
}

// InsertResult reports the outcome of an Insert.
type InsertResult struct {
	FileID id.File
	// OK is false if all attempts failed.
	OK bool
	// Attempts is the number of insert attempts performed (1 + file
	// diversions). The paper allows at most 4.
	Attempts int
	// FileDiversions is the number of re-salted retries performed:
	// always Attempts-1, on success and on failure alike (the first
	// attempt is not a diversion).
	FileDiversions int
	// Diverted counts replicas that were stored via replica diversion.
	Diverted int
	// Stored counts replicas created.
	Stored int
	// Partial reports a degraded success: the insert stored at least
	// one but fewer than the requested k replicas because part of the
	// replica set was unreachable (Config.PartialInsert). The shortfall
	// is a repair debt settled by replica maintenance.
	Partial bool
	// Hops is the number of routing hops of the final (successful or
	// last) attempt.
	Hops int
	// Receipts holds the store receipts when certificates are enabled.
	Receipts []*cert.StoreReceipt
	// Reason describes the failure, if any.
	Reason string
	// Trace holds the per-hop route records of the final attempt, when
	// the operation was traced: sampled by Config.Tracer, or run under a
	// sampled obs.TraceContext.
	Trace []obs.HopRecord
}

// Insert stores a file on the k nodes whose nodeIds are numerically
// closest to the fileId, performing replica diversion inside leaf sets
// and up to MaxRetries file diversions (re-salted fileIds) on failure.
// It may be called on any node; this node acts as the client's access
// point.
func (n *Node) Insert(spec InsertSpec) (*InsertResult, error) {
	return n.InsertContext(context.Background(), spec)
}

// InsertContext is Insert bounded by a context.
func (n *Node) InsertContext(ctx context.Context, spec InsertSpec) (*InsertResult, error) {
	k := spec.K
	if k <= 0 {
		k = n.cfg.K
	}
	if maxK := n.overlay.Config().L/2 + 1; k > maxK {
		return nil, fmt.Errorf("past: insert %q: k=%d exceeds l/2+1=%d (the paper's bound: any of the k closest nodes must see the whole replica set in its leaf set)",
			spec.Name, k, maxK)
	}
	size := spec.Size
	if spec.Content != nil {
		size = int64(len(spec.Content))
	}
	salt := spec.Salt
	if salt == 0 {
		n.mu.Lock()
		salt = n.rng.Uint64()
		n.mu.Unlock()
	}
	n.stats.Inserts.Add(1)
	ctx, traced := n.traceIntent(ctx)
	finishTrace := func(res *InsertResult, err error) {
		if !traced {
			return
		}
		tr := &obs.Trace{Op: "insert"}
		if err != nil {
			tr.Err = err.Error()
		}
		if res != nil {
			tr.Key = res.FileID.Key()
			tr.Hops = res.Trace
			tr.RouteHops = res.Hops
			tr.OK = res.OK
			if !res.OK && res.Reason != "" {
				tr.Err = res.Reason
			}
		}
		n.cfg.Tracer.Add(tr)
	}

	res := &InsertResult{}
	for attempt := 0; attempt <= n.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			// A re-salted retry is a file diversion (section 3.4).
			n.stats.FileDiversions.Add(1)
		}
		res.Attempts = attempt + 1
		var fid id.File
		var fc *cert.FileCertificate
		if spec.Owner != nil {
			var err error
			fc, err = spec.Owner.IssueFileCert(spec.Name, spec.Content, k, salt+uint64(attempt), spec.Created)
			if err != nil {
				err = fmt.Errorf("past: insert %q: %w", spec.Name, err)
				finishTrace(nil, err)
				return nil, err
			}
			fid = fc.FileID
		} else {
			fid = id.NewFile(spec.Name, nil, salt+uint64(attempt))
		}
		res.FileID = fid

		msg := &InsertMsg{File: fid, Size: size, Content: spec.Content, Cert: fc, K: k, borrowed: spec.borrowed}
		reply, hops, trace, err := n.overlay.RouteContext(ctx, fid.Key(), msg)
		if err == nil {
			res.Hops, res.Trace = hops, trace
		}
		ir, err := netsim.ReplyAs[InsertReply](reply, err)
		if err != nil {
			err = fmt.Errorf("past: insert %q: route: %w", spec.Name, err)
			finishTrace(res, err)
			return nil, err
		}
		if ir.OK {
			res.OK = true
			res.FileDiversions = attempt
			res.Stored = ir.Stored
			res.Diverted = ir.Diverted
			res.Receipts = ir.Receipts
			res.Partial = ir.Stored < k
			if res.Partial {
				n.stats.PartialInserts.Add(1)
			}
			if n.cfg.VerifyCerts && n.cfg.NodeKeys != nil {
				// Confirm the requested number of copies was created:
				// each receipt must verify against the storing node's
				// public key (section 2.2). A partial success vouches
				// only for the replicas it actually stored.
				want := k
				if n.cfg.PartialInsert && ir.Stored < k {
					want = ir.Stored
				}
				if err := verifyReceipts(ir.Receipts, fid, want, n.cfg.NodeKeys); err != nil {
					err = fmt.Errorf("past: insert %q: %w", spec.Name, err)
					finishTrace(res, err)
					return nil, err
				}
			}
			finishTrace(res, nil)
			return res, nil
		}
		res.Reason = ir.Reason
		// Failed attempt: the debited quota for this fileId is returned.
		if spec.Owner != nil {
			spec.Owner.Quota().Credit(size * int64(k))
		}
	}
	res.FileDiversions = res.Attempts - 1
	finishTrace(res, nil)
	return res, nil
}

// verifyReceipts checks that k distinct, correctly signed store receipts
// for fid were returned.
func verifyReceipts(receipts []*cert.StoreReceipt, fid id.File, k int, keys NodeKeyDirectory) error {
	seen := make(map[id.Node]bool, len(receipts))
	for _, r := range receipts {
		if r.FileID != fid {
			return fmt.Errorf("store receipt for wrong file %s", r.FileID.Short())
		}
		pub, ok := keys.NodeKey(r.Node)
		if !ok {
			return fmt.Errorf("no public key for storing node %s", r.Node.Short())
		}
		if err := r.Verify(pub); err != nil {
			return fmt.Errorf("store receipt from %s: %w", r.Node.Short(), err)
		}
		seen[r.Node] = true
	}
	if len(seen) < k {
		return fmt.Errorf("only %d distinct store receipts for %d requested copies", len(seen), k)
	}
	return nil
}

// coordinateInsert runs on the first node among the k closest to the
// fileId that an insert message reaches. It stores one replica locally
// (or diverts it) and forwards the request directly to the other k-1
// closest nodes, which all lie in this node's leaf set. If any member
// can neither store nor divert its replica, the stored replicas are
// discarded and a negative acknowledgment triggers file diversion at
// the client.
func (n *Node) coordinateInsert(key id.Node, m *InsertMsg) *InsertReply {
	if n.cfg.VerifyCerts {
		if m.Cert == nil {
			return &InsertReply{Reason: "missing file certificate"}
		}
		if err := m.Cert.Verify(n.cfg.Issuer, m.Content); err != nil {
			return &InsertReply{Reason: fmt.Sprintf("certificate rejected: %v", err)}
		}
		if m.Cert.K != m.K || m.Cert.FileID != m.File {
			return &InsertReply{Reason: "certificate does not match insert request"}
		}
	}

	// Erasure-coded mode: fragment the object over the leaf set and
	// k-replicate only the fragment map (see ec.go). Content-free
	// inserts (size-only trace accounting) cannot be coded and fall
	// through to plain replication, as does map content itself.
	if n.cfg.ECMode != nil && len(m.Content) > 0 && !ec.IsMap(m.Content) {
		return n.coordinateECInsert(key, m)
	}
	return n.replicateInsert(key, m)
}

// replicateInsert is the k-way replication fan-out shared by plain
// inserts and the EC coordinator (which replicates the fragment map
// through it).
func (n *Node) replicateInsert(key id.Node, m *InsertMsg) *InsertReply {
	members := n.overlay.ReplicaSet(key, m.K)
	rep := &InsertReply{}
	stored := make([]id.Node, 0, len(members))
	abort := func(reason string) *InsertReply {
		for _, s := range stored {
			_, _ = n.call(s, &discardMsg{File: m.File, Abort: true})
		}
		return &InsertReply{Reason: reason}
	}

	sm := &storeReplicaMsg{File: m.File, Key: key, Size: m.Size, Content: m.Content, Cert: m.Cert, K: m.K}
	skipped := 0
	for _, member := range members {
		sr, err := netsim.ReplyAs[storeReplicaReply](n.call(member, sm))
		if err != nil {
			if n.cfg.PartialInsert && netsim.Retryable(err) {
				// Degraded mode: skip the unreachable member and keep
				// going. The missing replica is a repair debt that
				// maintenance settles once the leaf set heals.
				skipped++
				continue
			}
			// A replica-set member died mid-insert (or sent a reply of
			// the wrong type); the client will re-salt (and maintenance
			// will have repaired the leaf set by then).
			return abort(fmt.Sprintf("replica node %s unreachable", member.Short()))
		}
		switch sr.Status {
		case storeOK:
			stored = append(stored, member)
			rep.Stored++
		case storeOKDiverted:
			stored = append(stored, member)
			rep.Stored++
			rep.Diverted++
		case storeAlreadyHeld:
			// fileId collision: the paper rejects the later file.
			return abort("fileId collision")
		case storeFailed:
			return abort("insufficient storage in replica set")
		}
		if sr.Receipt != nil {
			rep.Receipts = append(rep.Receipts, sr.Receipt)
		}
	}
	if skipped > 0 && rep.Stored == 0 {
		// Nothing was stored anywhere: not even a degraded success.
		return abort("entire replica set unreachable")
	}
	rep.OK = true
	return rep
}

// handleStoreReplica stores one replica at this node: locally if the
// acceptance policy admits it, otherwise via replica diversion.
func (n *Node) handleStoreReplica(m *storeReplicaMsg) *storeReplicaReply {
	n.mu.Lock()
	if n.leaving {
		n.mu.Unlock()
		return storeStatusReply(storeFailed, nil)
	}
	if _, dup := n.store.Stat(m.File); dup {
		n.mu.Unlock()
		return storeStatusReply(storeAlreadyHeld, nil)
	}
	if _, dup := n.store.GetPointer(m.File); dup {
		n.mu.Unlock()
		return storeStatusReply(storeAlreadyHeld, nil)
	}
	if n.store.CanAccept(m.Size, n.cfg.TPri) {
		err := n.addReplicaLocked(store.Entry{
			File: m.File, Size: m.Size, Kind: store.Primary,
			Content: m.Content, Cert: m.Cert,
		})
		n.mu.Unlock()
		if err != nil {
			return storeStatusReply(storeFailed, nil)
		}
		return storeStatusReply(storeOK, n.issueStoreReceipt(m.File))
	}
	n.mu.Unlock()
	return n.divertReplica(m)
}

// divertReplica implements replica diversion (section 3.3): choose the
// node with maximal remaining free space among the members of this
// node's leaf set that (a) are not among the k closest to the fileId and
// (b) do not already hold a diverted replica of the file; ask it to
// store the replica under the tdiv policy; on success enter pointers in
// this node's file table and at the k+1-th closest node C, so the
// diverted replica survives the failure of either referrer. Candidates
// are polled in LeafSet order, which the RandomDivert shuffle sees.
func (n *Node) divertReplica(m *storeReplicaMsg) *storeReplicaReply {
	eligible, backup := n.overlay.DivertCandidates(m.Key, m.K, make([]id.Node, 0, 32))
	cands := make([]divertCandidate, 0, 32)
	for _, b := range eligible {
		fr, err := netsim.ReplyAs[freeSpaceReply](n.call(b, &freeSpaceMsg{}))
		if err != nil {
			continue
		}
		cands = append(cands, divertCandidate{node: b, free: fr.Free.Load()})
	}
	if n.cfg.RandomDivert {
		// Ablation mode: ignore free space when picking the target.
		n.mu.Lock()
		n.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		n.mu.Unlock()
	}

	dm := &divertStoreMsg{File: m.File, Size: m.Size, Content: m.Content, Cert: m.Cert, Owner: n.ID()}
	target, ok := chooseDivertTarget(cands, !n.cfg.RandomDivert, func(b id.Node) (*divertStoreReply, error) {
		return netsim.ReplyAs[divertStoreReply](n.call(b, dm))
	})
	if !ok {
		return storeStatusReply(storeFailed, nil)
	}
	n.mu.Lock()
	n.store.SetPointer(store.Pointer{File: m.File, Target: target, Size: m.Size, Role: store.DivertedOut})
	n.mu.Unlock()
	if !backup.IsZero() && backup != n.ID() && backup != target {
		_, _ = n.call(backup, &installPointerMsg{File: m.File, Target: target, Size: m.Size, Role: store.Backup})
	}
	return storeStatusReply(storeOKDiverted, n.issueStoreReceipt(m.File))
}

// divertCandidate is a polled diversion candidate and its free space.
type divertCandidate struct {
	node id.Node
	free int64
}

// chooseDivertTarget asks candidates via try, in order or (mostFree)
// most free space first, ties to the smaller id, until one accepts. A
// dead candidate or one already holding the file (criterion b) is passed
// over; a lack of space ends the search. cands is reordered.
func chooseDivertTarget(cands []divertCandidate, mostFree bool, try func(id.Node) (*divertStoreReply, error)) (id.Node, bool) {
	for ; len(cands) > 0; cands = cands[1:] {
		if mostFree {
			best := 0
			for i, c := range cands[1:] {
				if b := cands[best]; c.free > b.free || c.free == b.free && c.node.Less(b.node) {
					best = i + 1
				}
			}
			cands[0], cands[best] = cands[best], cands[0]
		}
		switch r, err := try(cands[0].node); {
		case err != nil: // dead candidate; try the next
		case r.Status == divertOK:
			return cands[0].node, true
		case r.Status == divertNoSpace:
			return id.Node{}, false
		}
	}
	return id.Node{}, false
}

// handleDivertStore stores a diverted replica on behalf of Owner, under
// the stricter tdiv acceptance policy.
func (n *Node) handleDivertStore(m *divertStoreMsg) *divertStoreReply {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.leaving {
		return divertStatusReply(divertNoSpace, nil)
	}
	if _, dup := n.store.Stat(m.File); dup {
		return divertStatusReply(divertAlreadyHolds, nil)
	}
	if !n.store.CanAccept(m.Size, n.cfg.TDiv) {
		return divertStatusReply(divertNoSpace, nil)
	}
	if err := n.addReplicaLocked(store.Entry{
		File: m.File, Size: m.Size, Kind: store.DivertedIn,
		Owner: m.Owner, Content: m.Content, Cert: m.Cert,
	}); err != nil {
		return divertStatusReply(divertNoSpace, nil)
	}
	return divertStatusReply(divertOK, n.issueStoreReceipt(m.File))
}
