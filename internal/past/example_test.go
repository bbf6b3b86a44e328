package past_test

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"past/internal/cache"
	"past/internal/cert"
	"past/internal/id"
	"past/internal/past"
	"past/internal/pastry"
)

// Example demonstrates the complete client API on an emulated network.
func Example() {
	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 16}
	cfg.K = 3
	cfg.CachePolicy = cache.None // deterministic hop counts for the example

	cluster, err := past.NewCluster(past.ClusterSpec{
		N:        30,
		Cfg:      cfg,
		Capacity: func(i int, r *rand.Rand) int64 { return 1 << 20 },
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Insert through any node.
	res, err := cluster.Nodes[0].Insert(past.InsertSpec{
		Name:    "motd",
		Content: []byte("welcome to PAST"),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("replicas stored:", res.Stored)

	// Look up from another node.
	got, err := cluster.Nodes[29].Lookup(res.FileID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("found:", got.Found)
	fmt.Println("content:", string(got.Content))

	// Reclaim the storage.
	rec, err := cluster.Nodes[0].Reclaim(res.FileID, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("freed bytes:", rec.Freed)

	// Output:
	// replicas stored: 3
	// found: true
	// content: welcome to PAST
	// freed bytes: 45
}

// ExampleNode_Insert shows file diversion: identical salts collide, and
// the client re-salts into a different part of the nodeId space.
func ExampleNode_Insert() {
	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 16}
	cfg.K = 3
	cluster, err := past.NewCluster(past.ClusterSpec{
		N:        20,
		Cfg:      cfg,
		Capacity: func(i int, r *rand.Rand) int64 { return 1 << 20 },
		Seed:     2,
	})
	if err != nil {
		log.Fatal(err)
	}
	node := cluster.Nodes[0]

	first, _ := node.Insert(past.InsertSpec{Name: "dup", Size: 64, Salt: 9})
	second, _ := node.Insert(past.InsertSpec{Name: "dup", Size: 64, Salt: 9})
	fmt.Println("first attempts:", first.Attempts)
	fmt.Println("second attempts:", second.Attempts) // fileId collision forced a re-salt
	fmt.Println("distinct ids:", first.FileID != second.FileID)

	// Output:
	// first attempts: 1
	// second attempts: 2
	// distinct ids: true
}

// Example_archival is the paper's motivating use case, backup without
// physical media transport: a smartcard holder archives files under a
// storage quota, five nodes fail, and every archive is still retrievable
// and verified because PAST keeps k replicas and re-creates lost ones.
func Example_archival() {
	rng := rand.New(rand.NewSource(11))

	// A certificate authority (the smartcard issuer) and a user card
	// with a 64 MB storage quota.
	issuer, err := cert.NewIssuer(rng)
	if err != nil {
		log.Fatal(err)
	}
	const quota = 64 << 20
	card, err := issuer.IssueCard(rng, quota)
	if err != nil {
		log.Fatal(err)
	}

	// Storage nodes check file certificates before accepting replicas,
	// and lookups verify content hashes end to end.
	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 16}
	cfg.K = 3
	cfg.VerifyCerts = true
	cfg.Issuer = issuer.PublicKey()

	cluster, err := past.NewCluster(past.ClusterSpec{
		N:        40,
		Cfg:      cfg,
		Capacity: func(int, *rand.Rand) int64 { return 8 << 20 },
		Seed:     11,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Storage nodes need smartcards of their own to issue store and
	// reclaim receipts.
	for _, n := range cluster.Nodes {
		nodeCard, err := issuer.IssueCard(rng, 0)
		if err != nil {
			log.Fatal(err)
		}
		n.SetSmartcard(nodeCard)
	}

	ap := cluster.Nodes[0]
	fids := make([]id.File, 12)
	contents := make([][]byte, len(fids))
	for i := range fids {
		contents[i] = make([]byte, 4096+rng.Intn(32768))
		rng.Read(contents[i])
		res, err := ap.Insert(past.InsertSpec{
			Name: fmt.Sprintf("backup/2001-11/vol%02d.tar", i), Content: contents[i], Owner: card,
		})
		if err != nil {
			log.Fatal(err)
		}
		// The store receipts prove k replicas exist.
		if !res.OK || len(res.Receipts) != cfg.K {
			log.Fatalf("archive %d: ok=%v, %d receipts", i, res.OK, len(res.Receipts))
		}
		fids[i] = res.FileID
	}
	fmt.Printf("archived %d files; quota used %d of %d bytes\n",
		len(fids), card.Quota().Used(), quota)

	// Five storage nodes fail; keep-alive rounds detect the failures and
	// maintenance re-creates the lost replicas.
	alive := cluster.Net.AliveNodes()
	rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	failed := 0
	for _, nid := range alive {
		if nid == ap.ID() {
			continue
		}
		cluster.Fail(nid)
		if failed++; failed == 5 {
			break
		}
	}
	cluster.Maintain()
	cluster.Maintain()

	// Every archive is still retrievable from any access point, its
	// content verified against the file certificate's hash.
	for i, fid := range fids {
		got, err := cluster.RandomAliveNode().Lookup(fid)
		if err != nil {
			log.Fatal(err)
		}
		if !got.Found || !bytes.Equal(got.Content, contents[i]) {
			log.Fatalf("archive %d lost or corrupted", i)
		}
	}
	fmt.Printf("%d nodes failed; all %d archives intact\n", failed, len(fids))

	// Retiring an archive credits the quota.
	before := card.Quota().Used()
	if _, err := ap.Reclaim(fids[0], card); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reclaimed vol00: quota %d -> %d bytes\n", before, card.Quota().Used())

	// Output:
	// archived 12 files; quota used 713208 of 67108864 bytes
	// 5 nodes failed; all 12 archives intact
	// reclaimed vol00: quota 713208 -> 638637 bytes
}
