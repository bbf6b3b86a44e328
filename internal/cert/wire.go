package cert

import "past/internal/wire"

// Wire bodies of the certificate types. They travel only as pointer
// fields of PAST messages (wire.AppendPtr / wire.ReadPtr), so they carry
// no tag of their own. Keys and signatures are copied out of the frame:
// stores keep certificates long after the frame's payload is gone.

func (c *FileCertificate) AppendWire(b []byte) []byte {
	b = append(append(b, c.FileID[:]...), c.ContentHash[:]...)
	b = wire.AppendFixed64(wire.AppendInt(b, int64(c.K)), c.Salt)
	b = wire.AppendBytes(wire.AppendInt(b, c.Created), c.Owner)
	return wire.AppendBytes(wire.AppendBytes(b, c.OwnerSig), c.Sig)
}

func (c *FileCertificate) DecodeWire(r *wire.Reader) error {
	c.FileID, c.ContentHash = r.File(), [20]byte(r.File())
	c.K, c.Salt, c.Created = r.Int(), r.Fixed64(), r.Int64()
	c.Owner, c.OwnerSig, c.Sig = r.CopyBytes(), r.CopyBytes(), r.CopyBytes()
	return r.Err()
}

func (s *StoreReceipt) AppendWire(b []byte) []byte {
	return wire.AppendBytes(append(append(b, s.FileID[:]...), s.Node[:]...), s.Sig)
}

func (s *StoreReceipt) DecodeWire(r *wire.Reader) error {
	s.FileID, s.Node, s.Sig = r.File(), r.Node(), r.CopyBytes()
	return r.Err()
}

func (c *ReclaimCertificate) AppendWire(b []byte) []byte {
	b = wire.AppendBytes(append(b, c.FileID[:]...), c.Owner)
	return wire.AppendBytes(wire.AppendBytes(b, c.OwnerSig), c.Sig)
}

func (c *ReclaimCertificate) DecodeWire(r *wire.Reader) error {
	c.FileID, c.Owner, c.OwnerSig, c.Sig = r.File(), r.CopyBytes(), r.CopyBytes(), r.CopyBytes()
	return r.Err()
}

func (s *ReclaimReceipt) AppendWire(b []byte) []byte {
	b = wire.AppendInt(append(append(b, s.FileID[:]...), s.Node[:]...), s.Size)
	return wire.AppendBytes(b, s.Sig)
}

func (s *ReclaimReceipt) DecodeWire(r *wire.Reader) error {
	s.FileID, s.Node, s.Size, s.Sig = r.File(), r.Node(), r.Int64(), r.CopyBytes()
	return r.Err()
}
