package past

import (
	"context"

	"past/internal/chaos"
	"past/internal/id"
	"past/internal/obs"
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
	// borrowed marks Content as a view of the request frame
	// (wire.Reader.Borrowed); the insert passes it on.
	borrowed bool
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
// for each listed file (Node.Holds). It never routes. The past-cluster
// orchestrator asks every live node and assembles the answers into the
// chaos.Census the emulator's checker audits.
type ClientReplicaReport struct {
	Files []id.File
}

// ClientReplicaReportReply carries the per-file holds, parallel to the
// request's Files, plus the responder's identity.
type ClientReplicaReportReply struct {
	Node  id.Node
	Holds []chaos.Hold
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
		res, err := n.Insert(InsertSpec{Name: m.Name, Content: m.Content, K: m.K, borrowed: m.borrowed})
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
		return &ClientReplicaReportReply{Node: n.ID(), Holds: n.Holds(m.Files)}, nil
	case *ClientObsReport:
		return &ClientObsReportReply{Node: n.ID(), Snapshot: n.StatsSnapshot()}, nil
	}
	return nil, nil
}
