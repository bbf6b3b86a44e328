package frag_test

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"past/internal/ec"
	"past/internal/frag"
	"past/internal/past"
	"past/internal/pastry"
)

// Example stripes a large file over a cluster that stores files
// erasure-coded: every stripe becomes an rs(4,2) object, so the file
// costs ~1.5x its size and each stripe survives the loss of any two of
// its six fragments.
func Example() {
	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 16}
	cfg.K = 3
	cfg.ECMode = &ec.Params{Data: 4, Parity: 2}
	cluster, err := past.NewCluster(past.ClusterSpec{
		N:        30,
		Cfg:      cfg,
		Capacity: func(i int, r *rand.Rand) int64 { return 4 << 20 },
		Seed:     5,
	})
	if err != nil {
		log.Fatal(err)
	}

	store, err := frag.NewStore(cluster.Nodes[0], frag.Options{FragmentSize: 4 * (16 << 10)})
	if err != nil {
		log.Fatal(err)
	}

	content := make([]byte, 100_000)
	rand.New(rand.NewSource(1)).Read(content)
	res, err := store.Insert("video.bin", content)
	if err != nil {
		log.Fatal(err)
	}
	stored := cluster.StoredBytes() + cluster.FragBytes()
	fmt.Println("stripes stored:", res.Fragments)
	fmt.Printf("storage overhead: %.2fx\n", float64(stored)/float64(len(content)))

	got, err := store.Fetch(res.ManifestID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("intact:", bytes.Equal(got, content))

	// Output:
	// stripes stored: 2
	// storage overhead: 1.52x
	// intact: true
}
