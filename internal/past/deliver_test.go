package past

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"past/internal/id"
	"past/internal/logstore"
	"past/internal/netsim"
	"past/internal/store"
	"past/internal/topology"
	"past/internal/transport"
	"past/internal/wire"
)

// BenchmarkEmulatedPoll times one replica-diversion free-space poll
// between random nodes of a 100-node emulated cluster — the message a
// diverting insert sends most of — against the handler's own work, the
// locked store.Free() it answers with. The difference is what the
// emulator charges per message: the instrumented net, netsim's delivery
// and Node.deliver's dispatch. A poll allocates nothing: the message is
// empty and a node answers with its one reply.
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

// TestFreeSpaceReplyShared: a node answers every free-space poll with
// its one reply, so a poll allocates nothing, before or after its free
// space changes; the reply reads the free space of the latest poll.
func TestFreeSpaceReplyShared(t *testing.T) {
	cl := testCluster(t, 8, smallCfg(), 1<<20, 5)
	src, dst := cl.Nodes[0], cl.Nodes[1]
	poll := func() *freeSpaceReply {
		fr, err := netsim.ReplyAs[freeSpaceReply](src.net.Invoke(context.Background(), src.ID(), dst.ID(), &freeSpaceMsg{}))
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	first := poll()
	if again := poll(); again != first {
		t.Fatalf("an unchanged node answered two polls with different replies (%d, %d)", first.Free.Load(), again.Free.Load())
	}
	if allocs := testing.AllocsPerRun(100, func() { poll() }); allocs != 0 {
		t.Errorf("a poll of an unchanged node made %v allocations; want 0", allocs)
	}
	was := first.Free.Load()
	dst.mu.Lock()
	err := dst.store.Add(store.Entry{File: id.NewFile("shared-reply", nil, 1), Size: 4096})
	dst.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { poll() }); allocs != 0 {
		t.Errorf("a poll after the free space changed made %v allocations; want 0", allocs)
	}
	if next := poll(); next != first || next.Free.Load() != was-4096 {
		t.Fatalf("after storing 4096 bytes the poll read %d (same reply: %v); want the same reply with %d", next.Free.Load(), next == first, was-4096)
	}
}

// TestFreeSpacePollsOverTCP polls one logstore-backed node over
// loopback TCP and in process from several goroutines while another
// adds and removes its replicas. Every value a poll reads must be one
// the store passed through; a reply decoded off the wire is the
// poller's own and still holds it at the end. Run it under -race: the
// node's one reply is written by every poll and read by every poller
// and every TCP encoder that sends it.
func TestFreeSpacePollsOverTCP(t *testing.T) {
	wire.RegisterWire()
	RegisterWire()
	const capacity, size, held = 1 << 20, 512, 4
	ls, err := logstore.Open(t.TempDir(), logstoreTestOpts(capacity))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ls.Close() })
	nid := id.NodeFromUint64(1)
	ntr, err := transport.New(nid, "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ntr.Close() })
	n := NewWithStore(nid, ntr, smallCfg(), ls, 1)
	ntr.Serve(n)
	cid := id.NodeFromUint64(2)
	ctr, err := transport.New(cid, "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctr.Close() })
	if _, err := ctr.Bootstrap(ntr.Addr()); err != nil {
		t.Fatal(err)
	}

	type answer struct {
		r    *freeSpaceReply
		free int64
		tcp  bool
	}
	const pollers, polls = 4, 100
	answers := make([][]answer, pollers)
	errs := make(chan error, pollers+1)
	stop := make(chan struct{})
	var churn, wg sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		content := make([]byte, size)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f := id.NewFile(fmt.Sprintf("churn-%d", i%held), nil, 1)
			var err error
			n.mu.Lock()
			if _, ok := n.store.Remove(f); !ok {
				err = n.store.Add(store.Entry{File: f, Size: size, Content: content})
			}
			n.mu.Unlock()
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	for p := 0; p < pollers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < polls; i++ {
				var res any
				var err error
				if i%2 == 0 {
					res, err = ctr.Invoke(context.Background(), cid, nid, &freeSpaceMsg{})
				} else {
					res, err = n.Deliver(cid, &freeSpaceMsg{})
				}
				fr, err := netsim.ReplyAs[freeSpaceReply](res, err)
				if err != nil {
					errs <- err
					return
				}
				answers[p] = append(answers[p], answer{fr, fr.Free.Load(), i%2 == 0})
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for p := range answers {
		for _, a := range answers[p] {
			if a.tcp && a.r.Free.Load() != a.free {
				t.Fatalf("a decoded reply returned with %d free bytes reads %d at the end", a.free, a.r.Free.Load())
			}
			if !a.tcp && a.r != &n.freeReply {
				t.Fatal("an in-process poll was not answered with the node's one reply")
			}
			if used := capacity - a.free; used < 0 || used > held*size || used%size != 0 {
				t.Fatalf("a poll read %d free bytes, which the store never had", a.free)
			}
		}
	}
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
		"*pastry.Announce": 948, "*pastry.StateRequest": 49, "*pastry.RouteRequest": 803,
		"*past.storeReplicaMsg": 826, "*past.freeSpaceMsg": 1778, "*past.divertStoreMsg": 146,
		"*past.installPointerMsg": 73, "*past.discardMsg": 20, "*past.fetchMsg": 6,
	}
	if got := cl.Net.MessagesByType(); !reflect.DeepEqual(got, want) {
		t.Errorf("MessagesByType() = %v\nwant %v", got, want)
	}
	if got := cl.Net.Messages(); got != 4649 {
		t.Errorf("Messages() = %d, want 4649", got)
	}
	if len(files) != 392 {
		t.Errorf("%d files stored, want 392: the run itself changed", len(files))
	}
}
