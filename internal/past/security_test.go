package past

import (
	"crypto/ed25519"
	"math/rand"
	"strings"
	"testing"

	"past/internal/cert"
	"past/internal/id"
	"past/internal/pastry"
)

// keyRegistry is an in-memory NodeKeyDirectory.
type keyRegistry map[id.Node]ed25519.PublicKey

func (k keyRegistry) NodeKey(n id.Node) (ed25519.PublicKey, bool) {
	pub, ok := k[n]
	return pub, ok
}

// secureCluster builds a cluster with certificate verification enabled,
// smartcards on every node, and a key registry for receipt checks.
func secureCluster(t *testing.T, n int, seed int64) (*Cluster, *cert.Issuer, keyRegistry) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	issuer, err := cert.NewIssuer(rng)
	if err != nil {
		t.Fatal(err)
	}
	reg := keyRegistry{}
	cfg := DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 16}
	cfg.K = 3
	cfg.VerifyCerts = true
	cfg.Issuer = issuer.PublicKey()
	cfg.NodeKeys = reg

	c, err := NewCluster(ClusterSpec{
		N:        n,
		Cfg:      cfg,
		Capacity: func(int, *rand.Rand) int64 { return 1 << 21 },
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range c.Nodes {
		card, err := issuer.IssueCard(rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		node.card = card
		// Receipts identify nodes by the card-derived id (the paper's
		// nodeId IS the hash of the card key); the emulation assigns
		// overlay ids independently, so the registry indexes the
		// card-derived id the receipts actually carry.
		reg[card.NodeID()] = card.PublicKey()
	}
	return c, issuer, reg
}

func newOwnerCard(t *testing.T, issuer *cert.Issuer, quota int64, seed int64) *cert.Smartcard {
	t.Helper()
	card, err := issuer.IssueCard(rand.New(rand.NewSource(seed)), quota)
	if err != nil {
		t.Fatal(err)
	}
	return card
}

func TestCertifiedInsertLookup(t *testing.T) {
	c, issuer, _ := secureCluster(t, 30, 50)
	owner := newOwnerCard(t, issuer, 1<<20, 51)
	client := c.Nodes[0]

	res, err := client.Insert(InsertSpec{Name: "signed", Content: []byte("certified bytes"), Owner: owner})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("certified insert failed: %s", res.Reason)
	}
	got, err := c.Nodes[20].Lookup(res.FileID)
	if err != nil || !got.Found {
		t.Fatalf("certified lookup: %v %+v", err, got)
	}
}

func TestInsertWithoutCertificateRejected(t *testing.T) {
	c, _, _ := secureCluster(t, 20, 52)
	res, err := c.Nodes[0].Insert(InsertSpec{Name: "naked", Content: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("uncertified insert accepted by verifying nodes")
	}
	if !strings.Contains(res.Reason, "certificate") {
		t.Fatalf("reason = %q", res.Reason)
	}
}

func TestCorruptContentRejectedAtStorageNode(t *testing.T) {
	// A malicious access point altering the content after certification
	// is caught by the first storage node's hash check.
	c, issuer, _ := secureCluster(t, 20, 53)
	owner := newOwnerCard(t, issuer, 1<<20, 54)

	fc, err := owner.IssueFileCert("f", []byte("real content"), 3, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	client := c.Nodes[0]
	msg := &InsertMsg{File: fc.FileID, Size: 8, Content: []byte("tampered"), Cert: fc, K: 3}
	reply, _, err := client.Overlay().Route(fc.FileID.Key(), msg)
	if err != nil {
		t.Fatal(err)
	}
	ir := reply.(*InsertReply)
	if ir.OK {
		t.Fatal("tampered content stored")
	}
	if !strings.Contains(ir.Reason, "certificate") {
		t.Fatalf("reason = %q", ir.Reason)
	}
}

func TestForeignReclaimRejected(t *testing.T) {
	c, issuer, _ := secureCluster(t, 20, 55)
	owner := newOwnerCard(t, issuer, 1<<20, 56)
	attacker := newOwnerCard(t, issuer, 1<<20, 57)
	client := c.Nodes[0]

	res, err := client.Insert(InsertSpec{Name: "mine", Content: []byte("precious"), Owner: owner})
	if err != nil || !res.OK {
		t.Fatalf("insert: %v %+v", err, res)
	}

	// The attacker's reclaim certificate verifies as a signature but
	// names the wrong owner; every storing node refuses, so the reclaim
	// frees nothing and the replicas survive.
	evil, err := client.Reclaim(res.FileID, attacker)
	if err != nil {
		t.Fatal(err)
	}
	if evil.Found || evil.Freed != 0 {
		t.Fatalf("foreign reclaim freed storage: %+v", evil)
	}
	got, err := client.Lookup(res.FileID)
	if err != nil || !got.Found {
		t.Fatal("file lost to a foreign reclaim attempt")
	}

	// The rightful owner still can reclaim; the verified reclaim
	// receipts credit the quota back in full (size x k).
	usedBefore := owner.Quota().Used()
	rr, err := client.Reclaim(res.FileID, owner)
	if err != nil || !rr.Found {
		t.Fatalf("owner reclaim: %v %+v", err, rr)
	}
	if len(rr.Receipts) == 0 {
		t.Fatal("no reclaim receipts returned")
	}
	if got := usedBefore - owner.Quota().Used(); got != int64(len("precious"))*3 {
		t.Fatalf("quota credit %d; want %d", got, len("precious")*3)
	}
}

func TestStoreReceiptsVerifiedByClient(t *testing.T) {
	c, issuer, _ := secureCluster(t, 30, 58)
	owner := newOwnerCard(t, issuer, 1<<20, 59)
	client := c.Nodes[0]

	res, err := client.Insert(InsertSpec{Name: "receipted", Content: []byte("bytes"), Owner: owner})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || len(res.Receipts) < 3 {
		t.Fatalf("expected 3 verified receipts: %+v", res)
	}
	// Distinct storing nodes.
	seen := map[string]bool{}
	for _, r := range res.Receipts {
		seen[r.Node.String()] = true
	}
	if len(seen) != len(res.Receipts) {
		t.Fatal("duplicate receipt issuers")
	}
}

func TestReceiptVerificationCatchesUnknownNode(t *testing.T) {
	// With an empty key registry, receipt verification must fail closed.
	c, issuer, reg := secureCluster(t, 20, 60)
	owner := newOwnerCard(t, issuer, 1<<20, 61)
	// Wipe the registry.
	clear(reg)
	if _, err := c.Nodes[0].Insert(InsertSpec{Name: "x", Content: []byte("y"), Owner: owner}); err == nil {
		t.Fatal("insert with unverifiable receipts must error")
	}
}
