package cert

import (
	"errors"
	"math/rand"
	"testing"

	"past/internal/id"
)

// detRand is a deterministic io.Reader for key generation in tests.
type detRand struct{ r *rand.Rand }

func (d detRand) Read(p []byte) (int, error) { return d.r.Read(p) }

func newTestIssuer(t testing.TB, seed int64) (*Issuer, detRand) {
	t.Helper()
	rng := detRand{rand.New(rand.NewSource(seed))}
	iss, err := NewIssuer(rng)
	if err != nil {
		t.Fatal(err)
	}
	return iss, rng
}

func TestFileCertRoundTrip(t *testing.T) {
	iss, rng := newTestIssuer(t, 1)
	card, err := iss.IssueCard(rng, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("the content of the file")
	fc, err := card.IssueFileCert("report.pdf", content, 5, 42, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if fc.FileID != id.NewFile("report.pdf", card.PublicKey(), 42) {
		t.Fatal("fileId not derived per the paper")
	}
	if err := fc.Verify(iss.PublicKey(), content); err != nil {
		t.Fatal(err)
	}
	// Missing content is checked like any other: it fails a certificate
	// for non-empty content.
	if err := fc.Verify(iss.PublicKey(), nil); !errors.Is(err, ErrContentHash) {
		t.Fatalf("nil content: err = %v; want ErrContentHash", err)
	}
}

func TestFileCertDetectsTampering(t *testing.T) {
	iss, rng := newTestIssuer(t, 2)
	card, _ := iss.IssueCard(rng, 1<<30)
	content := []byte("data")
	fc, err := card.IssueFileCert("f", content, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	if err := fc.Verify(iss.PublicKey(), []byte("other")); !errors.Is(err, ErrContentHash) {
		t.Fatalf("corrupt content: err = %v; want ErrContentHash", err)
	}

	tampered := *fc
	tampered.K = 10
	if err := tampered.Verify(iss.PublicKey(), content); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered k: err = %v; want ErrBadSignature", err)
	}

	otherIssuer, _ := newTestIssuer(t, 3)
	if err := fc.Verify(otherIssuer.PublicKey(), content); !errors.Is(err, ErrBadIssuer) {
		t.Fatalf("wrong issuer: err = %v; want ErrBadIssuer", err)
	}
}

func TestFileCertRejectsBadK(t *testing.T) {
	iss, rng := newTestIssuer(t, 4)
	card, _ := iss.IssueCard(rng, 1<<30)
	if _, err := card.IssueFileCert("f", []byte("x"), 0, 1, 0); !errors.Is(err, ErrBadReplication) {
		t.Fatalf("err = %v; want ErrBadReplication", err)
	}
}

func TestQuotaDebitOnIssue(t *testing.T) {
	iss, rng := newTestIssuer(t, 5)
	card, _ := iss.IssueCard(rng, 100)
	// 30 bytes * k=3 = 90, fits.
	if _, err := card.IssueFileCert("a", make([]byte, 30), 3, 1, 0); err != nil {
		t.Fatal(err)
	}
	if card.Quota().Used() != 90 {
		t.Fatalf("used = %d; want 90", card.Quota().Used())
	}
	// Next insert exceeds quota.
	if _, err := card.IssueFileCert("b", make([]byte, 30), 3, 2, 0); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v; want ErrQuotaExceeded", err)
	}
	// Credit and retry.
	card.Quota().Credit(90)
	if _, err := card.IssueFileCert("b", make([]byte, 30), 3, 3, 0); err != nil {
		t.Fatal(err)
	}
}

func TestQuotaNegativeDebit(t *testing.T) {
	q := &Quota{limit: 10}
	if err := q.Debit(-1); err == nil {
		t.Fatal("negative debit must fail")
	}
	q.Credit(100)
	if q.Used() != 0 {
		t.Fatal("over-credit must clamp at zero")
	}
	if q.limit != 10 {
		t.Fatal("limit accessor wrong")
	}
}

func TestStoreReceipt(t *testing.T) {
	iss, rng := newTestIssuer(t, 6)
	owner, _ := iss.IssueCard(rng, 1<<30)
	storer, _ := iss.IssueCard(rng, 1<<30)
	fc, _ := owner.IssueFileCert("f", []byte("x"), 1, 1, 0)

	r := storer.IssueStoreReceipt(fc.FileID)
	if r.Node != storer.NodeID() {
		t.Fatal("receipt node mismatch")
	}
	if err := r.Verify(storer.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(owner.PublicKey()); err == nil {
		t.Fatal("receipt must not verify against a different node's key")
	}
	forged := *r
	forged.FileID = id.NewFile("g", owner.PublicKey(), 9)
	if err := forged.Verify(storer.PublicKey()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("forged receipt: err = %v; want ErrBadSignature", err)
	}
}

func TestReclaimCertAndReceipt(t *testing.T) {
	iss, rng := newTestIssuer(t, 7)
	owner, _ := iss.IssueCard(rng, 1<<30)
	attacker, _ := iss.IssueCard(rng, 1<<30)
	storer, _ := iss.IssueCard(rng, 1<<30)
	fc, _ := owner.IssueFileCert("f", []byte("x"), 1, 1, 0)

	rc := owner.IssueReclaimCert(fc.FileID)
	if err := rc.Verify(iss.PublicKey(), fc); err != nil {
		t.Fatal(err)
	}

	// A different card cannot reclaim someone else's file.
	evil := attacker.IssueReclaimCert(fc.FileID)
	if err := evil.Verify(iss.PublicKey(), fc); !errors.Is(err, ErrWrongOwner) {
		t.Fatalf("foreign reclaim: err = %v; want ErrWrongOwner", err)
	}

	rr := storer.IssueReclaimReceipt(fc.FileID, 123)
	if err := rr.Verify(storer.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if rr.Size != 123 {
		t.Fatal("size not carried")
	}
	bad := *rr
	bad.Size = 999
	if err := bad.Verify(storer.PublicKey()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered size: err = %v; want ErrBadSignature", err)
	}
}

func TestNodeIDFromCard(t *testing.T) {
	iss, rng := newTestIssuer(t, 8)
	card, _ := iss.IssueCard(rng, 1)
	if card.NodeID() != id.NodeFromPublicKey(card.PublicKey()) {
		t.Fatal("NodeID must be SHA-1 of the card public key")
	}
}

func TestContentHashStable(t *testing.T) {
	a := ContentHash([]byte("x"))
	b := ContentHash([]byte("x"))
	c := ContentHash([]byte("y"))
	if a != b || a == c {
		t.Fatal("content hash must be deterministic and discriminating")
	}
}

func BenchmarkIssueFileCert(b *testing.B) {
	rng := detRand{rand.New(rand.NewSource(1))}
	iss, _ := NewIssuer(rng)
	card, _ := iss.IssueCard(rng, 1<<60)
	content := make([]byte, 1024)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := card.IssueFileCert("f", content, 5, uint64(i), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyFileCert(b *testing.B) {
	rng := detRand{rand.New(rand.NewSource(1))}
	iss, _ := NewIssuer(rng)
	card, _ := iss.IssueCard(rng, 1<<60)
	content := make([]byte, 1024)
	fc, _ := card.IssueFileCert("f", content, 5, 1, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := fc.Verify(iss.PublicKey(), content); err != nil {
			b.Fatal(err)
		}
	}
}
