package past

import (
	"past/internal/cert"
	"past/internal/chaos"
	"past/internal/pastry"
	"past/internal/store"
	"past/internal/wire"
)

// RegisterWire binds every PAST message type to its wire tag (32-81)
// and registers Pastry's, for the TCP transport. Tags are part of the
// frame format: add new ones at the end, never renumber.
func RegisterWire() {
	pastry.RegisterWire()
	wire.Register[InsertMsg](32)
	wire.Register[InsertReply](33)
	wire.Register[LookupMsg](34)
	wire.Register[LookupReply](35)
	wire.Register[ReclaimMsg](36)
	wire.Register[ReclaimReply](37)
	wire.Register[storeReplicaMsg](38)
	wire.Register[storeReplicaReply](39)
	wire.Register[divertStoreMsg](40)
	wire.Register[divertStoreReply](41)
	wire.Register[freeSpaceMsg](42)
	wire.Register[freeSpaceReply](43)
	wire.Register[installPointerMsg](44)
	wire.Register[discardMsg](45)
	wire.Register[discardReply](46)
	wire.Register[fetchMsg](47)
	wire.Register[fetchReply](48)
	wire.Register[acquireMsg](49)
	wire.Register[acquireReply](50)
	wire.Register[locateSpaceMsg](51)
	wire.Register[locateSpaceReply](52)
	wire.Register[convertToDivertedMsg](53)
	wire.Register[pointerCheckMsg](54)
	wire.Register[pointerCheckReply](55)
	wire.Register[replicaSetQuery](56)
	wire.Register[replicaSetReply](57)
	wire.Register[divertedHolderLeaving](58)
	wire.Register[storeFragMsg](59)
	wire.Register[storeFragReply](60)
	wire.Register[fetchFragMsg](61)
	wire.Register[fetchFragReply](62)
	wire.Register[checkFragMsg](63)
	wire.Register[checkFragReply](64)
	wire.Register[dropFragMsg](65)
	wire.Register[mapUpdateMsg](66)
	wire.Register[ackMsg](67)
	wire.Register[ClientInsert](68)
	wire.Register[ClientInsertReply](69)
	wire.Register[ClientLookup](70)
	wire.Register[ClientLookupReply](71)
	wire.Register[ClientReclaim](72)
	wire.Register[ClientReclaimReply](73)
	wire.Register[ClientReplicaReport](74)
	wire.Register[ClientReplicaReportReply](75)
	// 76 and 77 were the ClientStatus request and reply, 78 and 79 the
	// ClientStats request and reply, all folded into ClientObsReport;
	// retired tags must not be reused.
	wire.Register[ClientObsReport](80)
	wire.Register[ClientObsReportReply](81)
}

// Field order in every pair below is the struct's declaration order.
// Content, Data and Raw decode with Reader.Bytes: borrowed views of a
// request frame, the message's own in a response. Everything else is
// copied out of the frame. A request whose payload a node may keep in
// its cache or fragment table records Reader.Borrowed, so that keeper
// copies it; stores copy every payload they keep.

// Routed payloads.

func (m *InsertMsg) AppendWire(b []byte) []byte {
	b = wire.AppendInt(append(b, m.File[:]...), m.Size)
	b = wire.AppendPtr(wire.AppendBytes(b, m.Content), m.Cert)
	return wire.AppendInt(b, int64(m.K))
}

func (m *InsertMsg) DecodeWire(r *wire.Reader) error {
	m.File, m.Size, m.Content = r.File(), r.Int64(), r.Bytes()
	m.Cert, m.K, m.borrowed = wire.ReadPtr[cert.FileCertificate](r), r.Int(), r.Borrowed()
	return r.Err()
}

func (m *InsertReply) AppendWire(b []byte) []byte {
	b = wire.AppendString(wire.AppendBool(b, m.OK), m.Reason)
	b = wire.AppendUvarint(b, uint64(len(m.Receipts)))
	for _, rc := range m.Receipts {
		b = wire.AppendPtr(b, rc)
	}
	return wire.AppendInt(wire.AppendInt(b, int64(m.Stored)), int64(m.Diverted))
}

func (m *InsertReply) DecodeWire(r *wire.Reader) error {
	m.OK, m.Reason = r.Bool(), r.String()
	if n := r.Len(1); n > 0 {
		m.Receipts = make([]*cert.StoreReceipt, n)
		for i := range m.Receipts {
			m.Receipts[i] = wire.ReadPtr[cert.StoreReceipt](r)
		}
	}
	m.Stored, m.Diverted = r.Int(), r.Int()
	return r.Err()
}

func (m *LookupMsg) AppendWire(b []byte) []byte { return append(b, m.File[:]...) }
func (m *LookupMsg) DecodeWire(r *wire.Reader) error {
	m.File = r.File()
	return r.Err()
}

func (m *LookupReply) AppendWire(b []byte) []byte {
	b = wire.AppendBytes(wire.AppendInt(wire.AppendBool(b, m.Found), m.Size), m.Content)
	b = wire.AppendBool(wire.AppendPtr(b, m.Cert), m.FromCache)
	return wire.AppendInt(b, int64(m.ExtraHops))
}

func (m *LookupReply) DecodeWire(r *wire.Reader) error {
	m.Found, m.Size, m.Content = r.Bool(), r.Int64(), r.Bytes()
	m.Cert, m.FromCache, m.ExtraHops = wire.ReadPtr[cert.FileCertificate](r), r.Bool(), r.Int()
	return r.Err()
}

func (m *ReclaimMsg) AppendWire(b []byte) []byte {
	return wire.AppendPtr(append(b, m.File[:]...), m.Cert)
}

func (m *ReclaimMsg) DecodeWire(r *wire.Reader) error {
	m.File, m.Cert = r.File(), wire.ReadPtr[cert.ReclaimCertificate](r)
	return r.Err()
}

func (m *ReclaimReply) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(wire.AppendBool(b, m.Found), uint64(len(m.Receipts)))
	for _, rc := range m.Receipts {
		b = wire.AppendPtr(b, rc)
	}
	return wire.AppendInt(b, m.Freed)
}

func (m *ReclaimReply) DecodeWire(r *wire.Reader) error {
	m.Found = r.Bool()
	if n := r.Len(1); n > 0 {
		m.Receipts = make([]*cert.ReclaimReceipt, n)
		for i := range m.Receipts {
			m.Receipts[i] = wire.ReadPtr[cert.ReclaimReceipt](r)
		}
	}
	m.Freed = r.Int64()
	return r.Err()
}

// Direct node-to-node messages.

func (m *storeReplicaMsg) AppendWire(b []byte) []byte {
	b = wire.AppendInt(append(append(b, m.File[:]...), m.Key[:]...), m.Size)
	b = wire.AppendPtr(wire.AppendBytes(b, m.Content), m.Cert)
	return wire.AppendInt(b, int64(m.K))
}

func (m *storeReplicaMsg) DecodeWire(r *wire.Reader) error {
	m.File, m.Key, m.Size, m.Content = r.File(), r.Node(), r.Int64(), r.Bytes()
	m.Cert, m.K = wire.ReadPtr[cert.FileCertificate](r), r.Int()
	return r.Err()
}

func (m *storeReplicaReply) AppendWire(b []byte) []byte {
	return wire.AppendPtr(append(b, byte(m.Status)), m.Receipt)
}

func (m *storeReplicaReply) DecodeWire(r *wire.Reader) error {
	m.Status, m.Receipt = storeReplicaStatus(r.Byte()), wire.ReadPtr[cert.StoreReceipt](r)
	return r.Err()
}

func (m *divertStoreMsg) AppendWire(b []byte) []byte {
	b = wire.AppendBytes(wire.AppendInt(append(b, m.File[:]...), m.Size), m.Content)
	return append(wire.AppendPtr(b, m.Cert), m.Owner[:]...)
}

func (m *divertStoreMsg) DecodeWire(r *wire.Reader) error {
	m.File, m.Size, m.Content = r.File(), r.Int64(), r.Bytes()
	m.Cert, m.Owner = wire.ReadPtr[cert.FileCertificate](r), r.Node()
	return r.Err()
}

func (m *divertStoreReply) AppendWire(b []byte) []byte {
	return wire.AppendPtr(append(b, byte(m.Status)), m.Receipt)
}

func (m *divertStoreReply) DecodeWire(r *wire.Reader) error {
	m.Status, m.Receipt = divertStoreStatus(r.Byte()), wire.ReadPtr[cert.StoreReceipt](r)
	return r.Err()
}

func (*freeSpaceMsg) AppendWire(b []byte) []byte    { return b }
func (*freeSpaceMsg) DecodeWire(*wire.Reader) error { return nil }

func (m *freeSpaceReply) AppendWire(b []byte) []byte { return wire.AppendInt(b, m.Free.Load()) }
func (m *freeSpaceReply) DecodeWire(r *wire.Reader) error {
	m.Free.Store(r.Int64())
	return r.Err()
}

func (m *installPointerMsg) AppendWire(b []byte) []byte {
	b = wire.AppendInt(append(append(b, m.File[:]...), m.Target[:]...), m.Size)
	return append(b, byte(m.Role))
}

func (m *installPointerMsg) DecodeWire(r *wire.Reader) error {
	m.File, m.Target, m.Size, m.Role = r.File(), r.Node(), r.Int64(), store.PtrRole(r.Byte())
	return r.Err()
}

func (m *discardMsg) AppendWire(b []byte) []byte {
	return wire.AppendBool(wire.AppendPtr(append(b, m.File[:]...), m.Cert), m.Abort)
}

func (m *discardMsg) DecodeWire(r *wire.Reader) error {
	m.File, m.Cert, m.Abort = r.File(), wire.ReadPtr[cert.ReclaimCertificate](r), r.Bool()
	return r.Err()
}

func (m *discardReply) AppendWire(b []byte) []byte {
	return wire.AppendPtr(wire.AppendInt(wire.AppendBool(b, m.Had), m.Size), m.Receipt)
}

func (m *discardReply) DecodeWire(r *wire.Reader) error {
	m.Had, m.Size, m.Receipt = r.Bool(), r.Int64(), wire.ReadPtr[cert.ReclaimReceipt](r)
	return r.Err()
}

func (m *fetchMsg) AppendWire(b []byte) []byte { return append(b, m.File[:]...) }
func (m *fetchMsg) DecodeWire(r *wire.Reader) error {
	m.File = r.File()
	return r.Err()
}

func (m *fetchReply) AppendWire(b []byte) []byte {
	b = wire.AppendBytes(wire.AppendInt(wire.AppendBool(b, m.Found), m.Size), m.Content)
	return wire.AppendPtr(b, m.Cert)
}

func (m *fetchReply) DecodeWire(r *wire.Reader) error {
	m.Found, m.Size, m.Content = r.Bool(), r.Int64(), r.Bytes()
	m.Cert = wire.ReadPtr[cert.FileCertificate](r)
	return r.Err()
}

func (m *acquireMsg) AppendWire(b []byte) []byte {
	b = wire.AppendInt(append(append(b, m.File[:]...), m.Key[:]...), m.Size)
	b = append(wire.AppendInt(b, int64(m.K)), m.Holder[:]...)
	return wire.AppendBool(b, m.HolderLeaving)
}

func (m *acquireMsg) DecodeWire(r *wire.Reader) error {
	m.File, m.Key, m.Size, m.K = r.File(), r.Node(), r.Int64(), r.Int()
	m.Holder, m.HolderLeaving = r.Node(), r.Bool()
	return r.Err()
}

func (m *acquireReply) AppendWire(b []byte) []byte { return append(b, byte(m.Status)) }
func (m *acquireReply) DecodeWire(r *wire.Reader) error {
	m.Status = acquireStatus(r.Byte())
	return r.Err()
}

func (m *locateSpaceMsg) AppendWire(b []byte) []byte {
	return wire.AppendInt(append(b, m.File[:]...), m.Size)
}

func (m *locateSpaceMsg) DecodeWire(r *wire.Reader) error {
	m.File, m.Size = r.File(), r.Int64()
	return r.Err()
}

func (m *locateSpaceReply) AppendWire(b []byte) []byte {
	return append(wire.AppendBool(b, m.OK), m.Candidate[:]...)
}

func (m *locateSpaceReply) DecodeWire(r *wire.Reader) error {
	m.OK, m.Candidate = r.Bool(), r.Node()
	return r.Err()
}

func (m *convertToDivertedMsg) AppendWire(b []byte) []byte {
	return append(append(b, m.File[:]...), m.Owner[:]...)
}

func (m *convertToDivertedMsg) DecodeWire(r *wire.Reader) error {
	m.File, m.Owner = r.File(), r.Node()
	return r.Err()
}

func (m *pointerCheckMsg) AppendWire(b []byte) []byte {
	return append(append(b, m.File[:]...), m.Holder[:]...)
}

func (m *pointerCheckMsg) DecodeWire(r *wire.Reader) error {
	m.File, m.Holder = r.File(), r.Node()
	return r.Err()
}

func (m *pointerCheckReply) AppendWire(b []byte) []byte { return wire.AppendBool(b, m.Valid) }
func (m *pointerCheckReply) DecodeWire(r *wire.Reader) error {
	m.Valid = r.Bool()
	return r.Err()
}

func (m *replicaSetQuery) AppendWire(b []byte) []byte { return wire.AppendInt(b, int64(m.K)) }
func (m *replicaSetQuery) DecodeWire(r *wire.Reader) error {
	m.K = r.Int()
	return r.Err()
}

func (m *replicaSetReply) AppendWire(b []byte) []byte { return wire.AppendNodes(b, m.Set) }
func (m *replicaSetReply) DecodeWire(r *wire.Reader) error {
	m.Set = r.Nodes()
	return r.Err()
}

func (m *divertedHolderLeaving) AppendWire(b []byte) []byte { return append(b, m.File[:]...) }
func (m *divertedHolderLeaving) DecodeWire(r *wire.Reader) error {
	m.File = r.File()
	return r.Err()
}

// Erasure-coding messages.

func (m *storeFragMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(wire.AppendInt(append(b, m.File[:]...), int64(m.Index)), uint64(m.Version))
	return wire.AppendUvarint(wire.AppendBytes(b, m.Data), uint64(m.CRC))
}

func (m *storeFragMsg) DecodeWire(r *wire.Reader) error {
	m.File, m.Index, m.Version, m.Data, m.CRC = r.File(), r.Int(), r.Uint32(), r.Bytes(), r.Uint32()
	m.borrowed = r.Borrowed()
	return r.Err()
}

func (m *storeFragReply) AppendWire(b []byte) []byte { return wire.AppendBool(b, m.OK) }
func (m *storeFragReply) DecodeWire(r *wire.Reader) error {
	m.OK = r.Bool()
	return r.Err()
}

func (m *fetchFragMsg) AppendWire(b []byte) []byte {
	return wire.AppendInt(append(b, m.File[:]...), int64(m.Index))
}

func (m *fetchFragMsg) DecodeWire(r *wire.Reader) error {
	m.File, m.Index = r.File(), r.Int()
	return r.Err()
}

func (m *fetchFragReply) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(wire.AppendBool(b, m.Found), uint64(m.Version))
	return wire.AppendUvarint(wire.AppendBytes(b, m.Data), uint64(m.CRC))
}

func (m *fetchFragReply) DecodeWire(r *wire.Reader) error {
	m.Found, m.Version, m.Data, m.CRC = r.Bool(), r.Uint32(), r.Bytes(), r.Uint32()
	return r.Err()
}

func (m *checkFragMsg) AppendWire(b []byte) []byte {
	return wire.AppendInt(append(b, m.File[:]...), int64(m.Index))
}

func (m *checkFragMsg) DecodeWire(r *wire.Reader) error {
	m.File, m.Index = r.File(), r.Int()
	return r.Err()
}

func (m *checkFragReply) AppendWire(b []byte) []byte {
	return wire.AppendUvarint(wire.AppendBool(b, m.Have), uint64(m.Version))
}

func (m *checkFragReply) DecodeWire(r *wire.Reader) error {
	m.Have, m.Version = r.Bool(), r.Uint32()
	return r.Err()
}

func (m *dropFragMsg) AppendWire(b []byte) []byte {
	return wire.AppendInt(append(b, m.File[:]...), int64(m.Index))
}

func (m *dropFragMsg) DecodeWire(r *wire.Reader) error {
	m.File, m.Index = r.File(), r.Int()
	return r.Err()
}

func (m *mapUpdateMsg) AppendWire(b []byte) []byte { return wire.AppendBytes(b, m.Raw) }
func (m *mapUpdateMsg) DecodeWire(r *wire.Reader) error {
	m.Raw = r.Bytes()
	return r.Err()
}

func (*ackMsg) AppendWire(b []byte) []byte    { return b }
func (*ackMsg) DecodeWire(*wire.Reader) error { return nil }

// Client RPCs.

func (m *ClientInsert) AppendWire(b []byte) []byte {
	return wire.AppendInt(wire.AppendBytes(wire.AppendString(b, m.Name), m.Content), int64(m.K))
}

func (m *ClientInsert) DecodeWire(r *wire.Reader) error {
	m.Name, m.Content, m.K, m.borrowed = r.String(), r.Bytes(), r.Int(), r.Borrowed()
	return r.Err()
}

func (m *ClientInsertReply) AppendWire(b []byte) []byte {
	b = wire.AppendInt(append(wire.AppendBool(b, m.OK), m.FileID[:]...), int64(m.Attempts))
	return wire.AppendString(b, m.Reason)
}

func (m *ClientInsertReply) DecodeWire(r *wire.Reader) error {
	m.OK, m.FileID, m.Attempts, m.Reason = r.Bool(), r.File(), r.Int(), r.String()
	return r.Err()
}

func (m *ClientLookup) AppendWire(b []byte) []byte { return append(b, m.File[:]...) }
func (m *ClientLookup) DecodeWire(r *wire.Reader) error {
	m.File = r.File()
	return r.Err()
}

func (m *ClientLookupReply) AppendWire(b []byte) []byte {
	b = wire.AppendBytes(wire.AppendInt(wire.AppendBool(b, m.Found), m.Size), m.Content)
	b = wire.AppendInt(wire.AppendBool(b, m.FromCache), int64(m.Hops))
	return wire.AppendFixed64(wire.AppendHops(b, m.Trace), m.TraceID)
}

func (m *ClientLookupReply) DecodeWire(r *wire.Reader) error {
	m.Found, m.Size, m.Content = r.Bool(), r.Int64(), r.Bytes()
	m.FromCache, m.Hops, m.Trace, m.TraceID = r.Bool(), r.Int(), r.Hops(), r.Fixed64()
	return r.Err()
}

func (m *ClientReclaim) AppendWire(b []byte) []byte { return append(b, m.File[:]...) }
func (m *ClientReclaim) DecodeWire(r *wire.Reader) error {
	m.File = r.File()
	return r.Err()
}

func (m *ClientReclaimReply) AppendWire(b []byte) []byte {
	return wire.AppendInt(wire.AppendBool(b, m.Found), m.Freed)
}

func (m *ClientReclaimReply) DecodeWire(r *wire.Reader) error {
	m.Found, m.Freed = r.Bool(), r.Int64()
	return r.Err()
}

func (m *ClientReplicaReport) AppendWire(b []byte) []byte { return wire.AppendFiles(b, m.Files) }
func (m *ClientReplicaReport) DecodeWire(r *wire.Reader) error {
	m.Files = r.Files()
	return r.Err()
}

func (m *ClientReplicaReportReply) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(append(b, m.Node[:]...), uint64(len(m.Holds)))
	for i := range m.Holds {
		h := &m.Holds[i]
		b = wire.AppendBool(wire.AppendBool(wire.AppendBool(b, h.Has), h.Primary), h.HasPtr)
		b = wire.AppendInt(wire.AppendInt(append(b, h.Ptr[:]...), int64(h.ECData)), int64(h.ECTotal))
		b = wire.AppendUvarint(b, uint64(len(h.Frags)))
		for _, idx := range h.Frags {
			b = wire.AppendInt(b, int64(idx))
		}
	}
	return b
}

func (m *ClientReplicaReportReply) DecodeWire(r *wire.Reader) error {
	const holdMinSize = 3 + 16 + 3 // three flags, the pointer, two ints and a count
	m.Node = r.Node()
	if n := r.Len(holdMinSize); n > 0 {
		m.Holds = make([]chaos.Hold, n)
		for i := range m.Holds {
			h := &m.Holds[i]
			h.Has, h.Primary, h.HasPtr = r.Bool(), r.Bool(), r.Bool()
			h.Ptr, h.ECData, h.ECTotal = r.Node(), r.Int(), r.Int()
			if k := r.Len(1); k > 0 {
				h.Frags = make([]int, k)
				for j := range h.Frags {
					h.Frags[j] = r.Int()
				}
			}
		}
	}
	return r.Err()
}

func (*ClientObsReport) AppendWire(b []byte) []byte    { return b }
func (*ClientObsReport) DecodeWire(*wire.Reader) error { return nil }

func (m *ClientObsReportReply) AppendWire(b []byte) []byte {
	return wire.AppendSnapshot(append(b, m.Node[:]...), m.Snapshot)
}

func (m *ClientObsReportReply) DecodeWire(r *wire.Reader) error {
	m.Node, m.Snapshot = r.Node(), r.Snapshot()
	return r.Err()
}
