package chaos

import (
	"fmt"
	"sort"

	"past/internal/id"
)

// The invariant checker walks live cluster state and asserts the
// paper's safety properties (sections 2.3 and 3.5). It is omniscient —
// it sees through partitions — because the properties it checks are
// global: a file is durable as long as SOME live node holds a replica,
// whichever side of a partition that node is on.

// Hold is one file's local state on one node, as the node itself
// reports it (past.Node.Holds; the ClientReplicaReport reply carries
// the same values over the wire).
type Hold struct {
	Has     bool    // node holds a replica (primary or diverted-in)
	Primary bool    // the replica is primary (meaningful when Has)
	HasPtr  bool    // node holds a diverted-replica pointer
	Ptr     id.Node // the pointer target (meaningful when HasPtr)
	// Erasure-coding state: when the held replica is a fragment map,
	// ECTotal > 0 carries the coding shape; Frags lists the fragment
	// indices this node holds locally (independent of Has — fragment
	// holders usually don't replicate the map).
	ECData  int
	ECTotal int
	Frags   []int
}

// NodeHolds is one node's entry in a census.
type NodeHolds struct {
	ID    id.Node
	Alive bool
	// Holds is parallel to Census.Files, or nil for a node that could
	// not report (a dead process).
	Holds []Hold
}

// Census is the checker's whole view of a cluster: the audited files
// and, per node in ascending nodeId order, whether it is alive and what
// it holds. The emulator takes one from every node in the process
// (past.Cluster.Census), dead ones included; the live fleet assembles
// one from a ClientReplicaReport per live process. Either way the same
// checker audits it.
type Census struct {
	Files []id.File
	Nodes []NodeHolds
}

func (c *Census) hold(ni, fi int) Hold {
	if hs := c.Nodes[ni].Holds; fi < len(hs) {
		return hs[fi]
	}
	return Hold{}
}

// find returns nid's index in c.Nodes, or -1.
func (c *Census) find(nid id.Node) int {
	i := sort.Search(len(c.Nodes), func(i int) bool { return !c.Nodes[i].ID.Less(nid) })
	if i < len(c.Nodes) && c.Nodes[i].ID == nid {
		return i
	}
	return -1
}

// liveHas reports whether nid is alive and holds a replica of file fi.
func (c *Census) liveHas(nid id.Node, fi int) bool {
	ni := c.find(nid)
	return ni >= 0 && c.Nodes[ni].Alive && c.hold(ni, fi).Has
}

// anyLiveHas reports whether some live node holds a replica of file fi.
func (c *Census) anyLiveHas(fi int) bool {
	for ni, n := range c.Nodes {
		if n.Alive && c.hold(ni, fi).Has {
			return true
		}
	}
	return false
}

// live returns the live nodeIds in ascending order.
func (c *Census) live() []id.Node {
	var out []id.Node
	for _, n := range c.Nodes {
		if n.Alive {
			out = append(out, n.ID)
		}
	}
	return out
}

// Shape returns file fi's coding parameters from any hold in the
// census. Dead nodes' holds count: the parameters are static, and they
// are needed precisely when every map holder is down.
func (c *Census) Shape(fi int) (data, total int, ok bool) {
	for ni := range c.Nodes {
		if h := c.hold(ni, fi); h.ECTotal > 0 {
			return h.ECData, h.ECTotal, true
		}
	}
	return 0, 0, false
}

// Fragments returns the live nodes holding each fragment index of file
// fi.
func (c *Census) Fragments(fi int) map[int][]id.Node {
	out := make(map[int][]id.Node)
	for ni, n := range c.Nodes {
		if !n.Alive {
			continue
		}
		for _, idx := range c.hold(ni, fi).Frags {
			out[idx] = append(out[idx], n.ID)
		}
	}
	return out
}

// Closest returns the k of nodes numerically closest to key, nearest
// first, by brute force: the ground truth replica placement is held to.
func Closest(key id.Node, nodes []id.Node, k int) []id.Node {
	out := append([]id.Node(nil), nodes...)
	k = min(k, len(out))
	for i := 0; i < k; i++ { // selection sort of the k nearest; k is small
		best := i
		for j := i + 1; j < len(out); j++ {
			if key.Closer(out[j], out[best]) {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	return out[:k]
}

// ViolationKind classifies an invariant violation.
type ViolationKind string

// Violation kinds.
const (
	// ViolationLost: no live node holds any replica — the file is
	// unreachable. The property the paper calls durability.
	ViolationLost ViolationKind = "lost"
	// ViolationUnderReplicated: fewer than k of the k closest live
	// nodes hold a replica or a valid pointer (checked after repair
	// has had a chance to run).
	ViolationUnderReplicated ViolationKind = "under-replicated"
	// ViolationDanglingPointer: one of the k closest nodes points at a
	// dead node or at a node that no longer holds the replica.
	ViolationDanglingPointer ViolationKind = "dangling-pointer"
	// ViolationStray: a node outside the replica set holds a primary
	// replica nobody references — storage the maintenance protocol
	// should have migrated or discarded.
	ViolationStray ViolationKind = "stray-replica"
	// ViolationFragmentsLost: an erasure-coded RS(m, n) object has fewer
	// than m distinct fragment indices on live nodes — it cannot be
	// reconstructed, whatever the fragment map says. The EC analogue of
	// ViolationLost.
	ViolationFragmentsLost ViolationKind = "fragments-lost"
	// ViolationFragmentMissing: a fragment index has no live holder
	// after repair has had a chance to run. The object is still
	// reconstructible; the lazy repair queue owes it a fragment. The EC
	// analogue of ViolationUnderReplicated.
	ViolationFragmentMissing ViolationKind = "fragment-missing"
)

// Violation is one structured invariant failure: which file, where, and
// the expected-vs-actual replica accounting at that epoch.
type Violation struct {
	Epoch    int
	Kind     ViolationKind
	File     id.File
	Node     id.Node // the offending node (zero for whole-file violations)
	Expected int
	Actual   int
}

// String renders the violation in a stable, fingerprintable form.
func (v Violation) String() string {
	return fmt.Sprintf("epoch=%d kind=%s file=%s node=%s expected=%d actual=%d",
		v.Epoch, v.Kind, v.File.Short(), v.Node.Short(), v.Expected, v.Actual)
}

// Checker validates the replica invariants over a set of confirmed
// files.
type Checker struct {
	// K is the replication factor the cluster was built with.
	K int
	// OnViolation, if set, observes each violation as it is found (the
	// metrics hook).
	OnViolation func(Violation)
}

func (ck *Checker) emit(out []Violation, v Violation) []Violation {
	if ck.OnViolation != nil {
		ck.OnViolation(v)
	}
	return append(out, v)
}

// CheckDurability asserts the mid-schedule safety property: every file
// retains at least one reachable replica. It is the only property that
// must hold while faults are active; replica counts may legitimately
// sag below k until repair catches up.
func (ck *Checker) CheckDurability(c *Census, epoch int) []Violation {
	var out []Violation
	for fi, f := range c.Files {
		if !c.anyLiveHas(fi) {
			out = ck.emit(out, Violation{
				Epoch: epoch, Kind: ViolationLost, File: f, Expected: 1, Actual: 0,
			})
		}
		// Erasure-coded object: losing the map is covered above (map
		// replicas are replicas); the content itself survives iff at
		// least m distinct fragment indices are on live nodes.
		if data, _, isEC := c.Shape(fi); isEC {
			if live := len(c.Fragments(fi)); live < data {
				out = ck.emit(out, Violation{
					Epoch: epoch, Kind: ViolationFragmentsLost, File: f,
					Expected: data, Actual: live,
				})
			}
		}
	}
	return out
}

// CheckConverged asserts the post-repair invariant: each of the k live
// nodes closest to a fileId holds a replica or a pointer to a live
// holder, every pointer resolves, and no unreferenced primary replicas
// linger outside the replica set.
func (ck *Checker) CheckConverged(c *Census, epoch int) []Violation {
	var out []Violation
	live := c.live()
	for fi, f := range c.Files {
		if !c.anyLiveHas(fi) {
			out = ck.emit(out, Violation{
				Epoch: epoch, Kind: ViolationLost, File: f, Expected: 1, Actual: 0,
			})
			continue
		}
		closest := Closest(f.Key(), live, ck.K)
		inSet := make(map[id.Node]bool, len(closest))
		referenced := make(map[id.Node]bool)
		covered := 0
		for _, nid := range closest {
			inSet[nid] = true
			h := c.hold(c.find(nid), fi)
			if h.Has {
				covered++
				continue
			}
			if h.HasPtr {
				if c.liveHas(h.Ptr, fi) {
					referenced[h.Ptr] = true
					covered++
					continue
				}
				out = ck.emit(out, Violation{
					Epoch: epoch, Kind: ViolationDanglingPointer, File: f, Node: nid,
					Expected: len(closest), Actual: covered,
				})
			}
		}
		if covered < len(closest) {
			out = ck.emit(out, Violation{
				Epoch: epoch, Kind: ViolationUnderReplicated, File: f,
				Expected: len(closest), Actual: covered,
			})
		}
		// Diverted-in copies are their referrer's charge, so only
		// primaries can be strays.
		for ni, n := range c.Nodes {
			if h := c.hold(ni, fi); n.Alive && h.Has && h.Primary && !inSet[n.ID] && !referenced[n.ID] {
				out = ck.emit(out, Violation{
					Epoch: epoch, Kind: ViolationStray, File: f, Node: n.ID,
					Expected: 0, Actual: 1,
				})
			}
		}
		// Erasure-coded object, post-repair: every fragment index must
		// be back on some live node (placement spread across distinct
		// nodes is a preference, not an invariant).
		if data, total, isEC := c.Shape(fi); isEC {
			byIdx := c.Fragments(fi)
			if len(byIdx) < data {
				out = ck.emit(out, Violation{
					Epoch: epoch, Kind: ViolationFragmentsLost, File: f,
					Expected: data, Actual: len(byIdx),
				})
				continue
			}
			for idx := 0; idx < total; idx++ {
				if len(byIdx[idx]) == 0 {
					out = ck.emit(out, Violation{
						Epoch: epoch, Kind: ViolationFragmentMissing, File: f,
						Expected: total, Actual: len(byIdx),
					})
					break
				}
			}
		}
	}
	return out
}
