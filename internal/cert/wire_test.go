package cert

import (
	"reflect"
	"testing"

	"past/internal/wire"
)

// certBodies returns one signed instance of each certificate body, in
// the order newCertBody numbers them.
func certBodies(t testing.TB) []wire.Message {
	iss, rng := newTestIssuer(t, 9)
	card, err := iss.IssueCard(rng, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := card.IssueFileCert("wire", []byte("certified bytes"), 3, 7, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return []wire.Message{
		fc,
		card.IssueStoreReceipt(fc.FileID),
		card.IssueReclaimCert(fc.FileID),
		card.IssueReclaimReceipt(fc.FileID, 45),
	}
}

// newCertBody returns an empty certificate body of the given kind.
func newCertBody(kind byte) wire.Message {
	switch kind % 4 {
	case 0:
		return new(FileCertificate)
	case 1:
		return new(StoreReceipt)
	case 2:
		return new(ReclaimCertificate)
	default:
		return new(ReclaimReceipt)
	}
}

// FuzzDecodeCert decodes arbitrary bytes as each certificate body, the
// bytes a peer's insert, lookup and reclaim messages carry. Decoding
// must never panic, and a body that decodes must survive encode and
// decode unchanged.
func FuzzDecodeCert(f *testing.F) {
	for kind, m := range certBodies(f) {
		f.Add(byte(kind), m.AppendWire(nil))
	}
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		m := newCertBody(kind)
		if m.DecodeWire(wire.NewReader(data)) != nil {
			return
		}
		back := newCertBody(kind)
		if err := back.DecodeWire(wire.NewReader(m.AppendWire(nil))); err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("%x decoded to %+v, which re-decodes to %+v, %v", data, m, back, err)
		}
	})
}

// TestDecodeCertTruncated: every proper prefix of a valid encoding of
// each body, the empty one included, decodes to an error.
func TestDecodeCertTruncated(t *testing.T) {
	for kind, m := range certBodies(t) {
		raw := m.AppendWire(nil)
		for n := 0; n < len(raw); n++ {
			if err := newCertBody(byte(kind)).DecodeWire(wire.NewReader(raw[:n])); err == nil {
				t.Fatalf("%T: the first %d of %d bytes decoded without error", m, n, len(raw))
			}
		}
		back := newCertBody(byte(kind))
		if err := back.DecodeWire(wire.NewReader(raw)); err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("%T: round trip gave %+v, %v", m, back, err)
		}
	}
}
