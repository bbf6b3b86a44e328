package past

import (
	"bytes"
	"fmt"
	"sync"

	"past/internal/ec"
	"past/internal/id"
	"past/internal/netsim"
	"past/internal/rs"
	"past/internal/store"
)

// Erasure-coded storage mode (the paper's section 3.6 future work,
// promoted to a first-class node-level mode). With Config.ECMode set,
// the insert coordinator RS(m, n)-encodes the object and places the
// m+n fragments on distinct leaf-set members under the tdiv acceptance
// threshold — the same diversion machinery that steers replicas away
// from full nodes. What it k-replicates through the ordinary path is a
// small fragment map (ec.Map), so map durability rides the existing
// replica-maintenance invariant untouched. Lookups reaching a map
// holder reconstruct from any m fragments, fetched in parallel with
// hedging to the remaining holders as fetches fail.
//
// Fragments themselves are NOT replicated; their durability comes from
// the lazy repair engine: the first replica-set member (the leader)
// probes fragment holders during each maintenance pass, enqueues
// missing or corrupt fragments on a per-node ec.RepairQueue, and drains
// it under Config.ECRepairBudget bytes per pass — re-encoding each lost
// fragment from m survivors and re-placing it, then bumping the map
// version and propagating the updated map to the other replicas.

// Direct EC messages.

// storeFragMsg places one fragment at a node.
type storeFragMsg struct {
	File    id.File
	Index   int
	Version uint32
	Data    []byte
	CRC     uint32
	// borrowed marks Data as a view of a received request frame
	// (wire.Reader.Borrowed), which the holder copies before keeping.
	borrowed bool
}

type storeFragReply struct {
	OK bool
}

// fetchFragMsg retrieves a fragment (CRC-verified by the holder).
type fetchFragMsg struct {
	File  id.File
	Index int
}

type fetchFragReply struct {
	Found   bool
	Version uint32
	Data    []byte
	CRC     uint32
}

// checkFragMsg is the anti-entropy probe: does the holder still have a
// valid copy of the fragment?
type checkFragMsg struct {
	File  id.File
	Index int
}

type checkFragReply struct {
	Have    bool
	Version uint32
}

// dropFragMsg discards a fragment (insert abort, reclaim).
type dropFragMsg struct {
	File  id.File
	Index int
}

// mapUpdateMsg carries a re-encoded fragment map to the other
// replica-set members after a repair moved a fragment. Receivers accept
// it only if the version is newer than what they hold.
type mapUpdateMsg struct {
	Raw []byte
}

// ecEncoders memoises one coder per parameter set: building one inverts
// the coding matrix (25 allocations for rs(4,2)), every coded insert
// and lookup needs one, and an rs.Encoder is immutable and safe for
// concurrent use, so all nodes of a process share it. Parameters come
// from a node's configuration but also from stored fragment maps, which
// any client can write, so the table stops growing at maxECEncoders and
// sets beyond that are built per call.
var ecEncoders = struct {
	sync.Mutex
	m map[ec.Params]*rs.Encoder
}{m: make(map[ec.Params]*rs.Encoder)}

const maxECEncoders = 64

// ecEncoder returns the shared coder for the given parameters.
func ecEncoder(p ec.Params) (*rs.Encoder, error) {
	ecEncoders.Lock()
	defer ecEncoders.Unlock()
	if enc := ecEncoders.m[p]; enc != nil {
		return enc, nil
	}
	enc, err := rs.New(p.Data, p.Parity)
	if err == nil && len(ecEncoders.m) < maxECEncoders {
		ecEncoders.m[p] = enc
	}
	return enc, err
}

// fragAcceptLocked applies the tdiv acceptance policy to a fragment: the
// fragment competes for the space replicas and cached copies use, so
// the node's free space is the store's minus bytes already pledged to
// fragments. Caller holds n.mu.
func (n *Node) fragAcceptLocked(size int64) bool {
	free := n.cacheSpaceLocked()
	return free >= 0 && store.Accepts(size, free, n.cfg.TDiv)
}

// handleStoreFrag stores one fragment at this node. The fragment table
// keeps a copy of borrowed data (a view of a received frame, or the
// coordinator's own data shard of one) and m.Data itself otherwise: on
// netsim a slice of the client's buffer, in a repair the rebuilt shard.
func (n *Node) handleStoreFrag(m *storeFragMsg) *storeFragReply {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.leaving || !n.fragAcceptLocked(int64(len(m.Data))) {
		return &storeFragReply{}
	}
	if ec.Checksum(m.Data) != m.CRC {
		return &storeFragReply{} // corrupted in transit; decline
	}
	data := m.Data
	if m.borrowed {
		data = bytes.Clone(data)
	}
	n.frags.Put(ec.Fragment{File: m.File, Index: m.Index, Version: m.Version, Data: data, CRC: m.CRC})
	n.cache.SetLimit(n.cacheSpaceLocked())
	return &storeFragReply{OK: true}
}

// handleFetchFrag serves a fragment; the store verifies the CRC and
// drops a corrupt copy, so the reply's Found=false covers both missing
// and corrupt.
func (n *Node) handleFetchFrag(m *fetchFragMsg) *fetchFragReply {
	f, ok := n.frags.Get(m.File, m.Index)
	if !ok {
		return &fetchFragReply{}
	}
	return &fetchFragReply{Found: true, Version: f.Version, Data: f.Data, CRC: f.CRC}
}

func (n *Node) handleCheckFrag(m *checkFragMsg) *checkFragReply {
	v, ok := n.frags.Has(m.File, m.Index)
	return &checkFragReply{Have: ok, Version: v}
}

func (n *Node) handleDropFrag(m *dropFragMsg) any {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.frags.Delete(m.File, m.Index)
	n.cache.SetLimit(n.cacheSpaceLocked())
	return &ackMsg{}
}

// handleMapUpdate installs a newer fragment map over the one this node
// replicates, if any. Older or equal versions are ignored — repair may
// race with maintenance-driven map copies.
func (n *Node) handleMapUpdate(m *mapUpdateMsg) any {
	nm, err := ec.DecodeMap(m.Raw)
	if err != nil {
		return &ackMsg{}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.store.Get(nm.File)
	if !ok || !ec.IsMap(e.Content) {
		return &ackMsg{}
	}
	cur, err := ec.DecodeMap(e.Content)
	if err == nil && cur.Version >= nm.Version {
		return &ackMsg{}
	}
	e.Content = m.Raw
	e.Size = int64(len(m.Raw))
	n.removeReplicaLocked(nm.File)
	_ = n.addReplicaLocked(e)
	return &ackMsg{}
}

// coordinateECInsert is the EC-mode insert coordinator: encode, place
// fragments over the leaf set, then k-replicate the fragment map
// through the ordinary replication path. Any placement shortfall aborts
// the attempt (dropping placed fragments), and the client's file
// diversion re-salts into a different leaf set. The data fragments are
// slices of m.Content (rs.Split aliases it), so the parity is the only
// payload a coded insert allocates, beside the copy this node keeps of
// its own fragment when m.Content is borrowed.
func (n *Node) coordinateECInsert(key id.Node, m *InsertMsg) *InsertReply {
	p := *n.cfg.ECMode
	enc, err := ecEncoder(p)
	if err != nil {
		return &InsertReply{Reason: fmt.Sprintf("ec: %v", err)}
	}
	shards, err := enc.Split(m.Content)
	if err != nil {
		return &InsertReply{Reason: fmt.Sprintf("ec: %v", err)}
	}
	if err := enc.Encode(shards); err != nil {
		return &InsertReply{Reason: fmt.Sprintf("ec: %v", err)}
	}
	shardSize := len(shards[0])

	// Place the m+n fragments on distinct nodes, numerically closest
	// first. A node that is full (tdiv), dead, or leaving is skipped and
	// the fragment moves to the next candidate — the diversion machinery
	// at fragment granularity.
	cands := n.overlay.FragmentTargets(key, n.overlay.Config().L+1)
	holders := make([]id.Node, p.Total())
	crcs := make([]uint32, p.Total())
	var placed []int
	next := 0
	dropPlaced := func() {
		for _, idx := range placed {
			_, _ = n.call(holders[idx], &dropFragMsg{File: m.File, Index: idx})
		}
	}
	for idx := 0; idx < p.Total(); idx++ {
		crcs[idx] = ec.Checksum(shards[idx])
		ok := false
		for !ok && next < len(cands) {
			target := cands[next]
			next++
			// A data shard aliases m.Content, so it is borrowed when the
			// content is; a parity shard is this node's own allocation.
			sr, err := netsim.ReplyAs[storeFragReply](n.call(target, &storeFragMsg{
				File: m.File, Index: idx, Version: 1, Data: shards[idx], CRC: crcs[idx],
				borrowed: m.borrowed && idx < p.Data,
			}))
			if err == nil && sr.OK {
				holders[idx] = target
				placed = append(placed, idx)
				ok = true
			}
		}
		if !ok {
			dropPlaced()
			return &InsertReply{Reason: fmt.Sprintf("ec: only %d of %d fragments placeable", len(placed), p.Total())}
		}
	}

	fmap := &ec.Map{
		File: m.File, Size: m.Size, Data: p.Data, Parity: p.Parity,
		ShardSize: shardSize, Version: 1, Holders: holders, CRCs: crcs,
	}
	raw := fmap.Encode()
	mm := *m
	mm.Content = raw
	mm.Size = int64(len(raw))
	rep := n.replicateInsert(key, &mm)
	if !rep.OK {
		dropPlaced()
		return rep
	}
	n.mu.Lock()
	n.ecInserts++
	n.mu.Unlock()
	return rep
}

// fetchFragMsgs returns the requests for every fragment of f, indexed
// by fragment: one allocation for all the fetches of a lookup or a
// repair, where a request each would escape to the heap one by one.
func fetchFragMsgs(f id.File, total int) []fetchFragMsg {
	reqs := make([]fetchFragMsg, total)
	for idx := range reqs {
		reqs[idx] = fetchFragMsg{File: f, Index: idx}
	}
	return reqs
}

// ecFetchFragAt fetches the fragment req names from its holder in fmap,
// verifying it against the map's shard size and CRC (fragment content
// never changes across repairs, so the map is authoritative). Returns the
// shard and the bytes moved.
func (n *Node) ecFetchFragAt(fmap *ec.Map, req *fetchFragMsg) ([]byte, int64) {
	idx := req.Index
	fr, err := netsim.ReplyAs[fetchFragReply](n.call(fmap.Holders[idx], req))
	if err != nil || !fr.Found || len(fr.Data) != fmap.ShardSize || ec.Checksum(fr.Data) != fmap.CRCs[idx] {
		return nil, 0
	}
	return fr.Data, int64(len(fr.Data))
}

// ecReconstruct serves a lookup from a fragment map held locally:
// fetch any m fragments (the first m holders in parallel, hedging to
// the remaining holders as fetches fail), rebuild missing data shards
// with ReconstructInto, and join. A nil return means fewer than m
// fragments were reachable; the caller degrades to not-found here and
// routing may still find another map holder with better connectivity.
func (n *Node) ecReconstruct(e store.Entry) *LookupReply {
	fmap, err := ec.DecodeMap(e.Content)
	if err != nil {
		return nil
	}
	enc, err := ecEncoder(fmap.Params())
	if err != nil {
		return nil
	}
	total := fmap.Params().Total()

	// Candidate order: local fragments are free, then data shards (a
	// full set of data shards joins without any decode), then parity.
	var order []int
	for _, local := range [2]bool{true, false} {
		for idx := 0; idx < total; idx++ {
			if (fmap.Holders[idx] == n.ID()) == local {
				order = append(order, idx)
			}
		}
	}

	type fres struct {
		idx  int
		data []byte
	}
	ch := make(chan fres, total)
	reqs := fetchFragMsgs(e.File, total)
	next, inflight := 0, 0
	launch := func() {
		for next < len(order) {
			idx := order[next]
			next++
			inflight++
			go func(idx int) {
				data, _ := n.ecFetchFragAt(fmap, &reqs[idx])
				ch <- fres{idx, data}
			}(idx)
			return
		}
	}
	for i := 0; i < fmap.Data; i++ {
		launch()
	}
	shards := make([][]byte, total)
	have := 0
	var missing []int
	for have < fmap.Data && inflight > 0 {
		r := <-ch
		inflight--
		if r.data != nil {
			shards[r.idx] = r.data
			have++
		} else {
			missing = append(missing, r.idx)
			launch() // hedge: try the next holder
		}
	}
	// Lookup-discovered losses feed the repair queue if this node leads
	// the object's replica set (the same node the anti-entropy pass
	// elects), so a hot object is repaired before the next full scan.
	if len(missing) > 0 && n.ecLeader(e.File) {
		for _, idx := range missing {
			n.repairq.Enqueue(ec.RepairItem{
				File: e.File, Index: idx,
				Cost: int64(fmap.ShardSize) * int64(fmap.Data+1),
			})
		}
	}
	if have < fmap.Data {
		return nil
	}
	shardSize := survivorSize(shards)
	for idx := 0; idx < fmap.Data; idx++ {
		if shards[idx] == nil {
			dst := make([]byte, shardSize)
			if err := enc.ReconstructInto(shards, idx, dst); err != nil {
				return nil
			}
			shards[idx] = dst
		}
	}
	content, err := enc.Join(shards, int(fmap.Size))
	if err != nil {
		return nil
	}
	n.mu.Lock()
	n.ecReconstructs++
	n.mu.Unlock()
	// The fragment fetches stand in for the paper's one-extra-RPC
	// pointer chase; charge them the same way.
	return &LookupReply{Found: true, Size: fmap.Size, Content: content, Cert: e.Cert, ExtraHops: 1}
}

// survivorSize is the length of the fetched shards. A rebuilt shard is
// sized from them, never from the map alone: a map is only as honest as
// the last peer that updated it, and its ShardSize is believed only once
// a fetched fragment has matched it.
func survivorSize(shards [][]byte) int {
	for _, s := range shards {
		if s != nil {
			return len(s)
		}
	}
	return 0
}

// ecLeader reports whether this node is the first member of the file's
// replica set — the single node that runs fragment anti-entropy and
// repair for the object, so k map holders don't quadruple the probe and
// repair traffic.
func (n *Node) ecLeader(f id.File) bool {
	rs := n.overlay.ReplicaSet(f.Key(), n.cfg.K)
	return len(rs) > 0 && rs[0] == n.ID()
}

// ecMaintain is the fragment-level anti-entropy and lazy-repair pass,
// appended to every replica-maintenance round. For each fragment map
// this node leads, probe every holder; enqueue missing/corrupt
// fragments; then drain the repair queue under the per-pass bandwidth
// budget.
func (n *Node) ecMaintain() {
	n.mu.Lock()
	entries := n.store.Entries()
	n.mu.Unlock()
	for _, e := range entries {
		// Entries lists metadata only; a fragment map is small, so
		// read just the plausible candidates before testing the magic.
		if e.Size == 0 || e.Size > ec.MaxMapSize {
			continue
		}
		n.mu.Lock()
		e, _ = n.store.Get(e.File)
		n.mu.Unlock()
		if !ec.IsMap(e.Content) {
			continue
		}
		fmap, err := ec.DecodeMap(e.Content)
		if err != nil || !n.ecLeader(e.File) {
			continue
		}
		for idx, holder := range fmap.Holders {
			have := false
			if holder == n.ID() || n.net.Alive(holder) {
				cr, err := netsim.ReplyAs[checkFragReply](n.call(holder, &checkFragMsg{File: e.File, Index: idx}))
				have = err == nil && cr.Have
			}
			if have {
				n.repairq.Drop(e.File, idx) // reappeared (e.g. transient partition)
			} else {
				n.repairq.Enqueue(ec.RepairItem{
					File: e.File, Index: idx,
					Cost: int64(fmap.ShardSize) * int64(fmap.Data+1),
				})
			}
		}
	}
	n.repairq.Drain(n.cfg.ECRepairBudget, n.repairFragment)
}

// repairFragment re-creates one lost fragment: fetch m survivors,
// rebuild the target shard, place it on a live node not already holding
// a fragment of the file, bump the map version, and propagate the new
// map to the other replica-set members. Returns the bytes moved and
// whether the repair succeeded; a failed repair is rediscovered by the
// next anti-entropy probe.
func (n *Node) repairFragment(it ec.RepairItem) (int64, bool) {
	n.mu.Lock()
	e, ok := n.store.Get(it.File)
	n.mu.Unlock()
	if !ok || !ec.IsMap(e.Content) {
		return 0, false // map reclaimed or migrated away; nothing to repair
	}
	fmap, err := ec.DecodeMap(e.Content)
	if err != nil || it.Index >= fmap.Params().Total() {
		return 0, false
	}
	enc, err := ecEncoder(fmap.Params())
	if err != nil {
		return 0, false
	}
	total := fmap.Params().Total()

	var moved int64
	shards := make([][]byte, total)
	reqs := fetchFragMsgs(it.File, total)
	have := 0
	for idx := 0; idx < total && have < fmap.Data; idx++ {
		if idx == it.Index {
			continue
		}
		data, b := n.ecFetchFragAt(fmap, &reqs[idx])
		moved += b
		if data != nil {
			shards[idx] = data
			have++
		}
	}
	if have < fmap.Data {
		return moved, false // object is below m survivors; nothing to rebuild from
	}
	dst := make([]byte, survivorSize(shards))
	if err := enc.ReconstructInto(shards, it.Index, dst); err != nil {
		return moved, false
	}
	if ec.Checksum(dst) != fmap.CRCs[it.Index] {
		return moved, false // rebuilt shard does not match the map: refuse to spread it
	}

	// Re-place: prefer the original holder (it may have restarted
	// empty), then any close node not holding another fragment of this
	// file, keeping the one-fragment-per-node spread.
	taken := make(map[id.Node]bool, total)
	for idx, h := range fmap.Holders {
		if idx != it.Index {
			taken[h] = true
		}
	}
	cands := []id.Node{fmap.Holders[it.Index]}
	for _, c := range n.overlay.FragmentTargets(it.File.Key(), n.overlay.Config().L+1) {
		if !taken[c] && c != fmap.Holders[it.Index] {
			cands = append(cands, c)
		}
	}
	sf := &storeFragMsg{File: it.File, Index: it.Index, Version: fmap.Version + 1, Data: dst, CRC: fmap.CRCs[it.Index]}
	for _, c := range cands {
		if c != n.ID() && !n.net.Alive(c) {
			continue
		}
		if sr, err := netsim.ReplyAs[storeFragReply](n.call(c, sf)); err != nil || !sr.OK {
			continue
		}
		moved += int64(len(dst))
		fmap.Holders[it.Index] = c
		fmap.Version++
		upd := &mapUpdateMsg{Raw: fmap.Encode()}
		_, _ = n.call(n.ID(), upd)
		for _, r := range n.overlay.ReplicaSet(it.File.Key(), n.cfg.K) {
			if r != n.ID() {
				_, _ = n.call(r, upd)
			}
		}
		return moved, true
	}
	return moved, false
}

// FragBytes returns the bytes pledged to fragments on this node.
func (n *Node) FragBytes() int64 { return n.frags.Bytes() }
