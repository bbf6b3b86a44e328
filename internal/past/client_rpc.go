package past

import (
	"context"

	"past/internal/id"
	"past/internal/obs"
	"past/internal/store"
)

// Client RPCs: a PAST node doubles as the access point for remote
// clients (cmd/pastctl). These messages arrive over the TCP transport
// and are served by running the corresponding local operation. Owner
// smartcards never leave the client, so remote operations run without
// certificates; deployments that require them run the client library
// in-process instead.

// ClientInsert asks the receiving node to insert a file on the caller's
// behalf.
type ClientInsert struct {
	Name    string
	Content []byte
	K       int
}

// ClientInsertReply reports the outcome.
type ClientInsertReply struct {
	OK       bool
	FileID   id.File
	Attempts int
	Reason   string
}

// ClientLookup asks the receiving node to retrieve a file.
type ClientLookup struct {
	File id.File
}

// ClientLookupReply carries the file back to the client. When the
// request arrived under an active trace context, Trace carries the
// stitched per-hop route records (spanning every process the route
// crossed) and TraceID echoes the trace id they were collected under.
type ClientLookupReply struct {
	Found     bool
	Size      int64
	Content   []byte
	FromCache bool
	Hops      int
	Trace     []obs.HopRecord
	TraceID   uint64
}

// ClientObsReport asks the receiving node for its full observability
// snapshot plus its identity, in one round trip. It is the fleet
// scraper's primary collection path; the node's /metrics debug endpoint
// is the fallback.
type ClientObsReport struct{}

// ClientObsReportReply carries the snapshot back.
type ClientObsReportReply struct {
	Node     id.Node
	Snapshot obs.Snapshot
}

// ClientReplicaReport asks the receiving node what it holds LOCALLY
// for each listed file — replica (and its kind) and diverted-replica
// pointer. It never routes. The past-cluster orchestrator snapshots
// every live node with one of these and feeds the result to the same
// chaos.Checker invariants the emulator enforces.
type ClientReplicaReport struct {
	Files []id.File
}

// ReplicaHold is one file's local state on one node.
type ReplicaHold struct {
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

// ClientReplicaReportReply carries the per-file holds, parallel to the
// request's Files, plus the responder's identity.
type ClientReplicaReportReply struct {
	Node  id.Node
	Holds []ReplicaHold
}

// ClientReclaim asks the receiving node to reclaim a file's storage.
type ClientReclaim struct {
	File id.File
}

// ClientReclaimReply reports the reclaimed bytes.
type ClientReclaimReply struct {
	Found bool
	Freed int64
}

// handleClientRPC serves the client messages; it returns (nil, nil) for
// non-client messages. A non-zero trace context (stamped on the wire
// envelope by the client's transport) turns a ClientLookup into a
// hop-recorded lookup whose reply carries the full cross-process route.
func (n *Node) handleClientRPC(tc obs.TraceContext, msg any) (any, error) {
	switch m := msg.(type) {
	case *ClientInsert:
		res, err := n.Insert(InsertSpec{Name: m.Name, Content: m.Content, K: m.K})
		if err != nil {
			return nil, err
		}
		return &ClientInsertReply{OK: res.OK, FileID: res.FileID, Attempts: res.Attempts, Reason: res.Reason}, nil
	case *ClientLookup:
		ctx := context.Background()
		if tc.Active() {
			ctx = obs.ContextWithTrace(ctx, tc)
		}
		res, err := n.LookupContext(ctx, m.File)
		if err != nil {
			return nil, err
		}
		reply := &ClientLookupReply{Found: res.Found, Size: res.Size, Content: res.Content,
			FromCache: res.FromCache, Hops: res.Hops}
		if tc.Active() {
			reply.Trace, reply.TraceID = res.Trace, tc.ID
		}
		return reply, nil
	case *ClientReclaim:
		res, err := n.Reclaim(m.File, nil)
		if err != nil {
			return nil, err
		}
		return &ClientReclaimReply{Found: res.Found, Freed: res.Freed}, nil
	case *ClientReplicaReport:
		reply := &ClientReplicaReportReply{
			Node:  n.ID(),
			Holds: make([]ReplicaHold, len(m.Files)),
		}
		for i, f := range m.Files {
			h := &reply.Holds[i]
			if kind, ok := n.ReplicaKind(f); ok {
				h.Has = true
				h.Primary = kind == store.Primary
			}
			if tgt, ok := n.HasPointer(f); ok {
				h.HasPtr, h.Ptr = true, tgt
			}
			if data, total, ok := n.ECInfo(f); ok {
				h.ECData, h.ECTotal = data, total
			}
			h.Frags = n.FragIndices(f)
		}
		return reply, nil
	case *ClientStatus:
		return &ClientStatusReply{Status: n.Status()}, nil
	case *ClientObsReport:
		return &ClientObsReportReply{Node: n.ID(), Snapshot: n.StatsSnapshot()}, nil
	}
	return nil, nil
}
