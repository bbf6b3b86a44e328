package cluster

import (
	"fmt"
	"sort"

	"past/internal/chaos"
	"past/internal/id"
	"past/internal/past"
)

// SnapshotState takes the fleet's census of the listed files from one
// ClientReplicaReport RPC per live process, so the SAME invariant
// checker that audits the single-process emulator audits the live
// fleet — but here "alive" means a real process and "holds a replica"
// means bytes a logstore serves after however many SIGKILLs its node
// has absorbed. Dead processes are in the census as not alive, with no
// holds.
func (c *Cluster) SnapshotState(files []id.File) (*chaos.Census, error) {
	cen := &chaos.Census{Files: files}
	for i, p := range c.Procs {
		n := chaos.NodeHolds{ID: p.ID, Alive: p.alive()}
		if n.Alive {
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
			n.Holds = rep.Holds
		}
		cen.Nodes = append(cen.Nodes, n)
	}
	sort.Slice(cen.Nodes, func(i, j int) bool { return cen.Nodes[i].ID.Less(cen.Nodes[j].ID) })
	return cen, nil
}

// CheckInvariants snapshots the fleet and runs the emulator's
// post-repair invariant check over it (replica counts, pointer
// validity, strays). epoch labels the violations.
func (c *Cluster) CheckInvariants(files []id.File, epoch int) ([]chaos.Violation, error) {
	cen, err := c.SnapshotState(files)
	if err != nil {
		return nil, err
	}
	ck := chaos.Checker{K: replicas}
	return ck.CheckConverged(cen, epoch), nil
}
