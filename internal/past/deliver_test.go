package past

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"past/internal/id"
	"past/internal/netsim"
)

// BenchmarkEmulatedPoll times one replica-diversion free-space poll
// between random nodes of a 100-node emulated cluster — the message a
// diverting insert sends most of — against the handler's own work, the
// locked store.Free() it answers with. The difference is what the
// emulator charges per message: the instrumented net, netsim's delivery
// and Node.deliver's dispatch.
func BenchmarkEmulatedPoll(b *testing.B) {
	cl, err := NewCluster(ClusterSpec{
		N: 100, Cfg: smallCfg(), Seed: 3,
		Capacity: func(int, *rand.Rand) int64 { return 1 << 30 },
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	pairs := make([][2]*Node, 1024)
	for i := range pairs {
		pairs[i] = [2]*Node{cl.Nodes[rng.Intn(len(cl.Nodes))], cl.Nodes[rng.Intn(len(cl.Nodes))]}
	}
	ctx := context.Background()
	b.Run("poll", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src, dst := pairs[i%len(pairs)][0], pairs[i%len(pairs)][1]
			if _, err := netsim.ReplyAs[freeSpaceReply](src.net.Invoke(ctx, src.ID(), dst.ID(), &freeSpaceMsg{})); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("handler", func(b *testing.B) {
		b.ReportAllocs()
		var free int64
		for i := 0; i < b.N; i++ {
			dst := pairs[i%len(pairs)][1]
			dst.mu.Lock()
			free += dst.store.Free()
			dst.mu.Unlock()
		}
		if free < 0 {
			b.Fatal("negative free space")
		}
	})
}

// TestMessageAccountingPinned replays a seeded 50-node run — joins,
// inserts that fill the nodes far enough to divert replicas, and
// lookups — and pins the emulator's message counts, in total and by
// type. Placement fingerprints catch a change to what is sent; this
// catches a change to how sent messages are counted.
func TestMessageAccountingPinned(t *testing.T) {
	cfg := smallCfg()
	cl, err := NewCluster(ClusterSpec{
		N: 50, Cfg: cfg, Seed: 50,
		Capacity: func(_ int, r *rand.Rand) int64 { return 1<<20 + r.Int63n(1<<20) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	var files []id.File
	for i := 0; i < 400; i++ {
		res, err := cl.Nodes[rng.Intn(len(cl.Nodes))].Insert(InsertSpec{Name: fmt.Sprintf("pin-%d", i), Size: 4096 + rng.Int63n(64<<10)})
		if err != nil {
			t.Fatal(err)
		}
		if res.OK {
			files = append(files, res.FileID)
		}
	}
	for i := 0; i < 200; i++ {
		if _, err := cl.Nodes[rng.Intn(len(cl.Nodes))].Lookup(files[rng.Intn(len(files))]); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int64{
		"*pastry.Announce": 948, "*pastry.StateRequest": 49, "*pastry.RouteRequest": 805,
		"*past.storeReplicaMsg": 828, "*past.freeSpaceMsg": 1778, "*past.divertStoreMsg": 145,
		"*past.installPointerMsg": 71, "*past.discardMsg": 14, "*past.fetchMsg": 6,
	}
	if got := cl.Net.MessagesByType(); !reflect.DeepEqual(got, want) {
		t.Errorf("MessagesByType() = %v\nwant %v", got, want)
	}
	if got := cl.Net.Messages(); got != 4644 {
		t.Errorf("Messages() = %d, want 4644", got)
	}
	if len(files) != 392 {
		t.Errorf("%d files stored, want 392: the run itself changed", len(files))
	}
}
