package cluster

import (
	"fmt"

	"past/internal/chaos"
	"past/internal/id"
	"past/internal/past"
)

// LiveState is a point-in-time window onto the fleet, built from one
// ClientReplicaReport RPC per live node. It implements
// chaos.ClusterState, so the SAME invariant checker that audits the
// single-process emulator audits the live fleet: replica placement,
// pointer validity, under-replication, and stray primaries — but here
// "alive" means a real process and "holds a replica" means bytes a
// logstore serves after however many SIGKILLs its node has absorbed.
type LiveState struct {
	ids     []id.Node
	alive   map[id.Node]bool
	fileIdx map[id.File]int
	holds   map[id.Node][]past.ReplicaHold
}

var _ chaos.ClusterState = (*LiveState)(nil)

// SnapshotState interrogates every live node about the listed files.
// Dead processes are in the state as not-alive, exactly as the
// emulator's checker sees failed nodes.
func (c *Cluster) SnapshotState(files []id.File) (*LiveState, error) {
	st := &LiveState{
		alive:   make(map[id.Node]bool, len(c.Procs)),
		fileIdx: make(map[id.File]int, len(files)),
		holds:   make(map[id.Node][]past.ReplicaHold, len(c.Procs)),
	}
	for i, f := range files {
		st.fileIdx[f] = i
	}
	for i, p := range c.Procs {
		st.ids = append(st.ids, p.ID)
		if !p.alive() {
			st.alive[p.ID] = false
			continue
		}
		reply, err := c.invoke(i, &past.ClientReplicaReport{Files: files})
		if err != nil {
			return nil, fmt.Errorf("cluster: replica report from node %d: %w", i, err)
		}
		rep, ok := reply.(*past.ClientReplicaReportReply)
		if !ok {
			return nil, fmt.Errorf("cluster: unexpected replica report reply %T", reply)
		}
		if rep.Node != p.ID {
			return nil, fmt.Errorf("cluster: node %d identifies as %s, expected %s (seed drift?)",
				i, rep.Node.Short(), p.ID.Short())
		}
		if len(rep.Holds) != len(files) {
			return nil, fmt.Errorf("cluster: node %d reported %d holds for %d files", i, len(rep.Holds), len(files))
		}
		st.alive[p.ID] = true
		st.holds[p.ID] = rep.Holds
	}
	return st, nil
}

// GlobalClosest returns the k live nodes numerically closest to key, by
// brute force — the same ground truth the emulator's checker uses.
func (s *LiveState) GlobalClosest(key id.Node, k int) []id.Node {
	out := make([]id.Node, 0, k)
	used := make(map[id.Node]bool, k)
	live := 0
	for _, nid := range s.ids {
		if s.alive[nid] {
			live++
		}
	}
	for len(out) < k && len(out) < live {
		var best id.Node
		first := true
		for _, nid := range s.ids {
			if !s.alive[nid] || used[nid] {
				continue
			}
			if first || key.Closer(nid, best) {
				best, first = nid, false
			}
		}
		used[best] = true
		out = append(out, best)
	}
	return out
}

// Alive implements chaos.ClusterState.
func (s *LiveState) Alive(nid id.Node) bool { return s.alive[nid] }

func (s *LiveState) hold(nid id.Node, f id.File) (past.ReplicaHold, bool) {
	hs, ok := s.holds[nid]
	if !ok {
		return past.ReplicaHold{}, false
	}
	i, ok := s.fileIdx[f]
	if !ok || i >= len(hs) {
		return past.ReplicaHold{}, false
	}
	return hs[i], true
}

// NodeHasReplica implements chaos.ClusterState.
func (s *LiveState) NodeHasReplica(nid id.Node, f id.File) bool {
	h, ok := s.hold(nid, f)
	return ok && h.Has
}

// NodePointer implements chaos.ClusterState.
func (s *LiveState) NodePointer(nid id.Node, f id.File) (id.Node, bool) {
	h, ok := s.hold(nid, f)
	if !ok || !h.HasPtr {
		return id.Node{}, false
	}
	return h.Ptr, true
}

// ReplicaHolders implements chaos.ClusterState.
func (s *LiveState) ReplicaHolders(f id.File) []id.Node {
	var out []id.Node
	for _, nid := range s.ids {
		if s.alive[nid] && s.NodeHasReplica(nid, f) {
			out = append(out, nid)
		}
	}
	return out
}

// PrimaryHolders implements chaos.ClusterState.
func (s *LiveState) PrimaryHolders(f id.File) []id.Node {
	var out []id.Node
	for _, nid := range s.ids {
		if !s.alive[nid] {
			continue
		}
		if h, ok := s.hold(nid, f); ok && h.Has && h.Primary {
			out = append(out, nid)
		}
	}
	return out
}

var _ chaos.FragmentState = (*LiveState)(nil)

// ECFile implements chaos.FragmentState: the coding parameters a live
// map holder reported for f. (Unlike the emulator's omniscient state, a
// live snapshot cannot interrogate dead processes; if every map holder
// is down the durability pass already reports the file lost.)
func (s *LiveState) ECFile(f id.File) (data, total int, ok bool) {
	for _, nid := range s.ids {
		if !s.alive[nid] {
			continue
		}
		if h, ok := s.hold(nid, f); ok && h.ECTotal > 0 {
			return h.ECData, h.ECTotal, true
		}
	}
	return 0, 0, false
}

// FragmentHolders implements chaos.FragmentState: live nodes holding
// each fragment index of f, as self-reported over the replica-report
// RPC.
func (s *LiveState) FragmentHolders(f id.File) map[int][]id.Node {
	out := make(map[int][]id.Node)
	for _, nid := range s.ids {
		if !s.alive[nid] {
			continue
		}
		if h, ok := s.hold(nid, f); ok {
			for _, idx := range h.Frags {
				out[idx] = append(out[idx], nid)
			}
		}
	}
	return out
}

// CheckInvariants snapshots the fleet and runs the emulator's
// post-repair invariant check over it (replica counts, pointer
// validity, strays). epoch labels the violations.
func (c *Cluster) CheckInvariants(files []id.File, epoch int) ([]chaos.Violation, error) {
	st, err := c.SnapshotState(files)
	if err != nil {
		return nil, err
	}
	ck := chaos.Checker{K: replicas}
	return ck.CheckConverged(st, files, epoch), nil
}

// CheckDurability snapshots the fleet and asserts the mid-fault safety
// property alone: every file retains at least one live replica.
func (c *Cluster) CheckDurability(files []id.File, epoch int) ([]chaos.Violation, error) {
	st, err := c.SnapshotState(files)
	if err != nil {
		return nil, err
	}
	ck := chaos.Checker{K: replicas}
	return ck.CheckDurability(st, files, epoch), nil
}
