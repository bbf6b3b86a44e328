package past

import (
	"sync/atomic"

	"past/internal/cert"
	"past/internal/id"
	"past/internal/store"
)

// Routed payloads (travel inside pastry.RouteRequest).

// InsertMsg asks the first node among the k closest to the fileId to
// coordinate storing k replicas.
type InsertMsg struct {
	File    id.File
	Size    int64
	Content []byte
	Cert    *cert.FileCertificate
	K       int
	// borrowed marks Content as a view of a received request frame
	// (wire.Reader.Borrowed): a node that keeps it copies it.
	borrowed bool
}

// InsertReply reports the outcome of one insert attempt.
type InsertReply struct {
	OK       bool
	Reason   string
	Receipts []*cert.StoreReceipt
	// Stored counts replicas created; Diverted counts how many of them
	// were replica-diverted.
	Stored, Diverted int
}

// LookupMsg retrieves a file; it is consumed by the first node on the
// route that holds the file (replica, diverted replica, pointer, or
// cached copy).
type LookupMsg struct {
	File id.File
}

// LookupReply carries the file back toward the client.
type LookupReply struct {
	Found     bool
	Size      int64
	Content   []byte
	Cert      *cert.FileCertificate
	FromCache bool
	// ExtraHops counts the pointer chase to a diverted replica, which
	// the paper charges as one additional RPC.
	ExtraHops int
}

// ReclaimMsg reclaims the storage of the k replicas of a file.
type ReclaimMsg struct {
	File id.File
	Cert *cert.ReclaimCertificate
}

// ReclaimReply reports the reclaimed replicas.
type ReclaimReply struct {
	Found    bool
	Receipts []*cert.ReclaimReceipt
	Freed    int64
}

// Direct node-to-node messages.

// storeReplicaMsg asks a member of the replica set to store a replica
// (primary, or diverted on its behalf).
type storeReplicaMsg struct {
	File    id.File
	Key     id.Node // 128-bit fileId prefix, for replica-set geometry
	Size    int64
	Content []byte
	Cert    *cert.FileCertificate
	K       int
}

// storeReplicaStatus enumerates the outcomes of a store request.
type storeReplicaStatus uint8

const (
	storeOK          storeReplicaStatus = iota // stored locally
	storeOKDiverted                            // stored at a diverted node
	storeAlreadyHeld                           // idempotent: replica already present
	storeFailed                                // neither local store nor diversion possible
)

type storeReplicaReply struct {
	Status  storeReplicaStatus
	Receipt *cert.StoreReceipt
}

// Replies are immutable once returned (DESIGN.md §15), so a reply that
// carries only a status is one shared value per status rather than an
// allocation per message.
var (
	storeStatusReplies = [...]storeReplicaReply{
		storeOK: {Status: storeOK}, storeOKDiverted: {Status: storeOKDiverted},
		storeAlreadyHeld: {Status: storeAlreadyHeld}, storeFailed: {Status: storeFailed},
	}
	divertStatusReplies = [...]divertStoreReply{
		divertOK: {Status: divertOK}, divertAlreadyHolds: {Status: divertAlreadyHolds},
		divertNoSpace: {Status: divertNoSpace},
	}
)

// storeStatusReply is the reply for status s: the shared value unless a
// receipt comes with it.
func storeStatusReply(s storeReplicaStatus, r *cert.StoreReceipt) *storeReplicaReply {
	if r == nil {
		return &storeStatusReplies[s]
	}
	return &storeReplicaReply{Status: s, Receipt: r}
}

// divertStoreMsg asks a non-replica-set node B to hold a diverted
// replica on behalf of Owner.
type divertStoreMsg struct {
	File    id.File
	Size    int64
	Content []byte
	Cert    *cert.FileCertificate
	Owner   id.Node
}

type divertStoreStatus uint8

const (
	divertOK divertStoreStatus = iota
	divertAlreadyHolds
	divertNoSpace
)

type divertStoreReply struct {
	Status  divertStoreStatus
	Receipt *cert.StoreReceipt
}

// divertStatusReply is storeStatusReply's twin for divertStoreReply.
func divertStatusReply(s divertStoreStatus, r *cert.StoreReceipt) *divertStoreReply {
	if r == nil {
		return &divertStatusReplies[s]
	}
	return &divertStoreReply{Status: s, Receipt: r}
}

// freeSpaceMsg queries a node's remaining free space (piggybacked on
// keep-alives in a deployment; an explicit message here). The answer is
// the node's one freeSpaceReply, so a poll allocates nothing.
type freeSpaceMsg struct{}

// freeSpaceReply is the one reply that is not immutable (DESIGN.md §15):
// each poll stores the node's free space into it under n.mu, and the
// poller and the TCP encoder load it, so a reply read later may show a
// later value.
type freeSpaceReply struct {
	Free atomic.Int64
}

// installPointerMsg asks a node to record a diverted-replica pointer
// (the k+1-th closest node's backup pointer, or a migration pointer).
type installPointerMsg struct {
	File   id.File
	Target id.Node
	Size   int64
	Role   store.PtrRole
}

// discardMsg asks a node to discard its replica of (or pointer to) a
// file, either during reclaim (with certificate) or when aborting a
// failed insert (abort=true, no certificate needed).
type discardMsg struct {
	File  id.File
	Cert  *cert.ReclaimCertificate
	Abort bool
}

type discardReply struct {
	Had     bool
	Size    int64
	Receipt *cert.ReclaimReceipt
}

// fetchMsg retrieves replica content directly from a known holder
// (pointer chase during lookup, content transfer during migration).
type fetchMsg struct {
	File id.File
}

type fetchReply struct {
	Found   bool
	Size    int64
	Content []byte
	Cert    *cert.FileCertificate
}

// acquireMsg tells a node it should now hold a replica of File (it has
// become one of the k closest). Holder is a live node that has a copy.
// If HolderLeaving, the holder has just ceased to be one of the k
// closest, so the receiver may install a diverted-replica pointer to it
// instead of copying the content (section 3.5's join optimization).
type acquireMsg struct {
	File          id.File
	Key           id.Node
	Size          int64
	K             int
	Holder        id.Node
	HolderLeaving bool
}

type acquireStatus uint8

const (
	acquireAlreadyHave acquireStatus = iota
	acquireStored
	acquirePointer // installed pointer to the (leaving) holder
	acquireFailed
)

type acquireReply struct {
	Status acquireStatus
}

// locateSpaceMsg implements section 3.5's overflow search: a node asks a
// distant leaf-set member to find, within that member's own leaf set, a
// node able to hold a diverted replica.
type locateSpaceMsg struct {
	File id.File
	Size int64
}

type locateSpaceReply struct {
	OK        bool
	Candidate id.Node
}

// convertToDivertedMsg tells the holder of a (former primary) replica
// that Owner now points at it, so the entry must be retained as a
// diverted-in replica.
type convertToDivertedMsg struct {
	File  id.File
	Owner id.Node
}

type ackMsg struct{}

// pointerCheckMsg asks the supposed owner of a diverted-in replica
// whether its pointer at Holder still stands. Holders use it to detect
// orphaned diverted replicas: a live owner that denies the reference
// frees the holder to adopt (and then migrate or discard) the copy. A
// dead owner is NOT a denial — it may recover with its pointer intact.
type pointerCheckMsg struct {
	File   id.File
	Holder id.Node
}

type pointerCheckReply struct {
	Valid bool
}

// replicaSetQuery is a routed message answered by the node numerically
// closest to Key with its view of the replica set. A holder far from
// the key (its replica stranded by a partition or mass churn) uses it
// during maintenance: its own leaf set may not span the key, so its
// local ReplicaSet approximation could nominate wrong nodes.
type replicaSetQuery struct {
	K int
}

type replicaSetReply struct {
	Set []id.Node
}
