package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"past/internal/admit"
	"past/internal/cache"
	"past/internal/cachengine"
	"past/internal/cert"
	"past/internal/ec"
	"past/internal/id"
	"past/internal/logstore"
	"past/internal/netsim"
	"past/internal/obs"
	"past/internal/past"
	"past/internal/pastry"
	"past/internal/rs"
	"past/internal/store"
	"past/internal/topology"
	"past/internal/transport"
	"past/internal/wire"
)

// The rungs time one layer's public calls in isolation. They do not
// depend on the workload; every traced run measures them afresh, so a
// run's latency budget uses rung costs taken on the same machine in the
// same minute.

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink struct {
	n   int
	b   bool
	any any
	buf []byte
}

// ladder collects rung results. slot is the time one timed loop may
// take; the first error stops the ladder.
type ladder struct {
	slot time.Duration
	out  map[string]float64
}

// ns times f and returns nanoseconds per call: the batch size doubles
// until one batch lasts a quarter of the slot, then the fastest of three
// batches counts.
func (l *ladder) ns(f func()) float64 {
	batch := func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return time.Since(t0)
	}
	n := 1
	for batch(n) < l.slot/4 && n < 1<<30 {
		n *= 2
	}
	best := batch(n)
	for i := 0; i < 2; i++ {
		best = min(best, batch(n))
	}
	return float64(best) / float64(n)
}

// allocs returns heap allocations per call of f, over 64 calls after
// one warm-up call.
func allocs(f func()) float64 {
	const n = 64
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / n
}

// medianOf runs f n times and returns the median of its durations.
func medianOf(n int, f func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[n/2], nil
}

func randNode(r *rand.Rand) (n id.Node) { r.Read(n[:]); return n }
func randFile(r *rand.Rand) (f id.File) { r.Read(f[:]); return f }

// echo answers every message with a fixed reply.
type echo struct{ reply any }

func (e echo) Deliver(id.Node, any) (any, error) { return e.reply, nil }

// loopReader yields first once and then rest for ever: a gob stream's
// opening message (type preamble included) followed by steady state.
type loopReader struct {
	first, rest []byte
	off         int
	steady      bool
}

func (r *loopReader) Read(p []byte) (int, error) {
	src := r.first
	if r.steady {
		src = r.rest
	}
	n := copy(p, src[r.off:])
	if r.off += n; r.off == len(src) {
		r.off, r.steady = 0, true
	}
	return n, nil
}

type readWriter struct {
	io.Reader
	io.Writer
}

// runRungs measures every isolated rung; each timed loop gets slot.
func runRungs(slot time.Duration, seed int64, workdir string) (map[string]float64, error) {
	registerWire()
	l := &ladder{slot: slot, out: map[string]float64{}}
	r := rand.New(rand.NewSource(seed ^ 0x2B6))
	ctx := context.Background()
	for _, rung := range []func(context.Context, *ladder, *rand.Rand, string) error{
		rungsID, rungsWire, rungsTransport, rungsNetsimPastry, rungsStore, rungsLogstore,
		rungsCache, rungsEC, rungsCertAdmit, rungsPastSim, rungsPastTCP,
	} {
		if err := rung(ctx, l, r, workdir); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

func rungsID(_ context.Context, l *ladder, r *rand.Rand, _ string) error {
	a, b, k := randNode(r), randNode(r), randNode(r)
	b[0], b[1] = a[0], a[1] // share four digits, as neighbours in a routing table row do
	l.out["id.shared_prefix_ns"] = l.ns(func() { sink.n = a.SharedPrefix(b, 4) })
	l.out["id.closer_ns"] = l.ns(func() { sink.b = k.Closer(a, b) })
	return nil
}

func rungsWire(_ context.Context, l *ladder, r *rand.Rand, _ string) error {
	for _, c := range []struct {
		suffix string
		msg    any
		full   bool // also report bytes, allocations and the preamble
	}{
		{"route", &pastry.RouteRequest{Key: randNode(r), Payload: &past.LookupMsg{File: randFile(r)}, Hops: 1}, true},
		{"4k", &pastry.RouteRequest{Key: randNode(r), Payload: &past.InsertMsg{File: randFile(r), Size: 4 << 10, Content: make([]byte, 4<<10), K: 3}}, false},
		{"64k", &pastry.RouteRequest{Key: randNode(r), Payload: &past.InsertMsg{File: randFile(r), Size: 64 << 10, Content: make([]byte, 64<<10), K: 3}}, false},
	} {
		req := &wire.Request{Src: randNode(r), Msg: c.msg}
		var buf bytes.Buffer
		enc := wire.NewCodec(&buf)
		if err := enc.WriteRequest(req); err != nil {
			return err
		}
		first := append([]byte(nil), buf.Bytes()...)
		buf.Reset()
		if err := enc.WriteRequest(req); err != nil {
			return err
		}
		rest := append([]byte(nil), buf.Bytes()...)
		encode := func() {
			buf.Reset()
			_ = enc.WriteRequest(req) // encoding into a buffer failed above or never
		}
		dec := wire.NewCodec(readWriter{&loopReader{first: first, rest: rest}, io.Discard})
		var derr error
		decode := func() {
			if sink.any, derr = dec.ReadRequest(); derr != nil {
				panic(derr) // a stream this function just encoded
			}
		}
		l.out["wire.enc_"+c.suffix+"_ns"] = l.ns(encode)
		l.out["wire.dec_"+c.suffix+"_ns"] = l.ns(decode)
		if c.full {
			l.out["wire.bytes_route"] = float64(len(rest))
			l.out["wire.preamble_bytes"] = float64(len(first) - len(rest))
			l.out["wire.allocs_route"] = allocs(encode) + allocs(decode)
		} else if c.suffix == "4k" {
			l.out["wire.allocs_4k"] = allocs(encode) + allocs(decode)
		}
	}
	return nil
}

func rungsTransport(ctx context.Context, l *ladder, r *rand.Rand, _ string) error {
	srvID, cliID := randNode(r), randNode(r)
	srv, err := transport.New(srvID, "127.0.0.1:0", topology.Point{})
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.Serve(echo{&pastry.Pong{}})
	cli, err := transport.New(cliID, "127.0.0.1:0", topology.Point{})
	if err != nil {
		return err
	}
	defer cli.Close()
	cli.AddEntry(srv.SelfEntry())
	var callErr error
	call := func(msg any) func() {
		return func() {
			if _, err := cli.Invoke(ctx, cliID, srvID, msg); err != nil {
				callErr = err
			}
		}
	}
	small := call(&pastry.Ping{})
	l.out["transport.rtt_small_us"] = l.ns(small) / 1e3
	l.out["transport.rtt_allocs"] = allocs(small)
	l.out["transport.rtt_4k_us"] = l.ns(call(&past.ClientInsert{Content: make([]byte, 4<<10)})) / 1e3
	l.out["transport.rtt_64k_us"] = l.ns(call(&past.ClientInsert{Content: make([]byte, 64<<10)})) / 1e3

	// Two callers, one peer: what parallel fragment fetches see.
	var wg sync.WaitGroup
	var done [2]int
	t0 := time.Now()
	for g := range done {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < l.slot {
				if _, err := cli.Invoke(ctx, cliID, srvID, &pastry.Ping{}); err != nil {
					return
				}
				done[g]++
			}
		}()
	}
	wg.Wait()
	l.out["transport.par2_ops_s"] = float64(done[0]+done[1]) / time.Since(t0).Seconds()

	cold, err := medianOf(9, func() (time.Duration, error) {
		c, err := transport.New(randNode(r), "127.0.0.1:0", topology.Point{})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		t0 := time.Now()
		_, err = c.InvokeAddrContext(ctx, srv.Addr(), &pastry.Ping{})
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	l.out["transport.cold_rtt_us"] = us(cold)
	return callErr
}

func rungsNetsimPastry(ctx context.Context, l *ladder, r *rand.Rand, _ string) error {
	const n = 256
	net := netsim.New()
	a, b := randNode(r), randNode(r)
	net.Register(b, topology.Point{}, echo{&pastry.Pong{}})
	l.out["netsim.invoke_ns"] = l.ns(func() { sink.any, _ = net.Invoke(ctx, a, b, &pastry.Ping{}) })

	net = netsim.New()
	nodes := make([]*pastry.Node, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		nid := randNode(r)
		node := pastry.New(nid, net, pastry.DefaultConfig(), pastry.NopApplication{}, r.Int63())
		net.Register(nid, topology.DefaultPlane.RandomPoint(r), node)
		if i == 0 {
			node.Bootstrap()
		} else if err := node.Join(nodes[r.Intn(i)].ID()); err != nil {
			return fmt.Errorf("pastry rung: join %d: %w", i, err)
		}
		nodes = append(nodes, node)
	}
	l.out["pastry.join_ms"] = float64(time.Since(t0).Milliseconds()) / (n - 1)
	var routes, hops int
	var rerr error
	route := func() {
		_, h, err := nodes[r.Intn(n)].Route(randNode(r), &pastry.Ping{})
		if err != nil {
			rerr = err
		}
		routes, hops = routes+1, hops+h
	}
	l.out["pastry.route_us"] = l.ns(route) / 1e3
	l.out["pastry.route_hops"] = float64(hops) / float64(routes)
	l.out["pastry.route_allocs"] = allocs(route)
	key := randNode(r)
	l.out["pastry.first_hop_ns"] = l.ns(func() { sink.any = nodes[0].FirstHop(key) })
	return rerr
}

func rungsStore(_ context.Context, l *ladder, r *rand.Rand, _ string) error {
	const held = 10000
	s := store.New(1 << 40)
	files := make([]id.File, held)
	for i := range files {
		files[i] = randFile(r)
		if err := s.Add(store.Entry{File: files[i], Size: 4096}); err != nil {
			return err
		}
	}
	l.out["store.get_ns"] = l.ns(func() { _, sink.b = s.Get(files[r.Intn(held)]) })
	l.out["store.can_accept_ns"] = l.ns(func() { sink.b = s.CanAccept(4096, 0.1) })
	grow := store.New(1 << 40)
	var n uint64
	l.out["store.add_ns"] = l.ns(func() {
		if grow.Len() == 1<<16 { // keep the table the size a node's is
			grow = store.New(1 << 40)
		}
		n++
		_ = grow.Add(store.Entry{File: id.NewFile("rung", nil, n), Size: 4096}) // fresh id, ample space
	})
	return nil
}

func rungsLogstore(_ context.Context, l *ladder, r *rand.Rand, workdir string) error {
	dir, err := os.MkdirTemp(workdir, "pastbench-rung-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	body := make([]byte, 4<<10)
	r.Read(body)
	open := func(name string, sync logstore.SyncPolicy) (*logstore.Store, error) {
		return logstore.Open(filepath.Join(dir, name), logstore.Options{Capacity: 1 << 40, Sync: sync})
	}

	ls, err := open("never", logstore.SyncNever)
	if err != nil {
		return err
	}
	var n uint64
	var files []id.File
	var aerr error
	add := func(s *logstore.Store) func() {
		return func() {
			n++
			f := id.NewFile("rung", nil, n)
			if err := s.Add(store.Entry{File: f, Size: int64(len(body)), Content: body}); err != nil {
				aerr = err
			}
			files = append(files, f)
		}
	}
	l.out["logstore.add_4k_us"] = l.ns(add(ls)) / 1e3
	l.out["logstore.add_allocs"] = allocs(add(ls))
	l.out["logstore.get_4k_us"] = l.ns(func() { _, sink.b = ls.Get(files[r.Intn(len(files))]) }) / 1e3
	if err := ls.Close(); err != nil {
		return err
	}
	if aerr != nil {
		return aerr
	}

	// Every Add waits for the sandbox's disk: information only.
	lsync, err := open("always", logstore.SyncAlways)
	if err != nil {
		return err
	}
	addSync := add(lsync)
	d, _ := medianOf(5, func() (time.Duration, error) {
		t0 := time.Now()
		addSync()
		return time.Since(t0), nil
	})
	l.out["logstore.add_4k_sync_us"] = us(d)
	if err := lsync.Close(); err != nil {
		return err
	}

	big, err := open("open10k", logstore.SyncNever)
	if err != nil {
		return err
	}
	for i := 0; i < 10000; i++ {
		n++
		if err := big.Add(store.Entry{File: id.NewFile("rung", nil, n), Size: 4096}); err != nil {
			return err
		}
	}
	if err := big.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	if big, err = open("open10k", logstore.SyncNever); err != nil {
		return err
	}
	l.out["logstore.open_10k_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	return big.Close()
}

func rungsCache(_ context.Context, l *ladder, r *rand.Rand, _ string) error {
	const limit = 1 << 20
	body := make([]byte, 4<<10)
	eng, err := cachengine.New(cachengine.Config{Policy: cache.GDS})
	if err != nil {
		return err
	}
	eng.SetLimit(limit)
	hot := make([]id.File, 100) // 400 KiB: resident
	for i := range hot {
		hot[i] = randFile(r)
		eng.Insert(hot[i], int64(len(body)), body)
	}
	absent := randFile(r)
	l.out["cachengine.get_hit_ns"] = l.ns(func() { _, _, sink.b = eng.Get(hot[r.Intn(len(hot))]) })
	l.out["cachengine.get_miss_ns"] = l.ns(func() { _, _, sink.b = eng.Get(absent) })

	var wg sync.WaitGroup
	var done [2]int
	t0 := time.Now()
	for g := range done {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Since(t0) < l.slot; i++ {
				for j := 0; j < 256; j++ {
					eng.Get(hot[(i+j)%len(hot)])
				}
				done[g] += 256
			}
		}()
	}
	wg.Wait()
	l.out["cachengine.par2_get_ns"] = float64(time.Since(t0)) / float64(done[0]+done[1])

	// A full cache: every insert of a new file evicts.
	var n uint64
	insert := func() {
		n++
		sink.b = eng.Insert(id.NewFile("rung", nil, n), int64(len(body)), body)
	}
	l.out["cachengine.insert_evict_ns"] = l.ns(insert)
	l.out["cachengine.allocs_insert"] = allocs(insert)

	legacy := cache.New(cache.GDS, 1)
	legacy.SetLimit(limit)
	l.out["cache.gds_insert_evict_ns"] = l.ns(func() {
		n++
		sink.b = legacy.Insert(id.NewFile("rung", nil, n), int64(len(body)), body)
	})
	return nil
}

func rungsEC(_ context.Context, l *ladder, r *rand.Rand, _ string) error {
	const size = 64 << 10
	enc, err := rs.New(4, 2)
	if err != nil {
		return err
	}
	data := make([]byte, size)
	r.Read(data)
	var shards [][]byte
	var rerr error
	mbs := func(ns float64) float64 { return float64(size) / (1 << 20) / (ns / 1e9) }
	l.out["rs.encode_mb_s"] = mbs(l.ns(func() {
		if shards, rerr = enc.Split(data); rerr == nil {
			rerr = enc.Encode(shards)
		}
	}))
	if rerr != nil {
		return rerr
	}
	l.out["rs.reconstruct_mb_s"] = mbs(l.ns(func() {
		work := append([][]byte(nil), shards...)
		work[0], work[1] = nil, nil
		if err := enc.Reconstruct(work); err != nil {
			rerr = err
		}
	}))
	if rerr != nil {
		return rerr
	}

	m := &ec.Map{File: randFile(r), Size: size, Data: 4, Parity: 2, ShardSize: size / 4, Version: 1}
	for i := 0; i < 6; i++ {
		m.Holders = append(m.Holders, randNode(r))
		m.CRCs = append(m.CRCs, ec.Checksum(shards[i]))
	}
	raw := m.Encode()
	l.out["ec.map_encode_ns"] = l.ns(func() { sink.buf = m.Encode() })
	l.out["ec.map_decode_ns"] = l.ns(func() {
		if sink.any, err = ec.DecodeMap(raw); err != nil {
			rerr = err
		}
	})
	fs := ec.NewFragStore()
	frag := ec.Fragment{File: m.File, Index: 0, Version: 1, Data: shards[0], CRC: m.CRCs[0]}
	l.out["ec.frag_put_get_ns"] = l.ns(func() {
		fs.Put(frag)
		_, sink.b = fs.Get(frag.File, 0)
	})
	return rerr
}

func rungsCertAdmit(_ context.Context, l *ladder, r *rand.Rand, _ string) error {
	issuer, err := cert.NewIssuer(r)
	if err != nil {
		return err
	}
	card, err := issuer.IssueCard(r, 1<<62)
	if err != nil {
		return err
	}
	body := make([]byte, 4<<10)
	var fc *cert.FileCertificate
	var salt uint64
	var cerr error
	l.out["cert.issue_file_us"] = l.ns(func() {
		salt++
		if fc, err = card.IssueFileCert("rung", body, 3, salt, 0); err != nil {
			cerr = err
		}
	}) / 1e3
	if cerr != nil {
		return cerr
	}
	l.out["cert.verify_file_us"] = l.ns(func() {
		if err := fc.Verify(issuer.PublicKey(), body); err != nil {
			cerr = err
		}
	}) / 1e3
	ctl := admit.New(admit.Config{Rate: 1e12, Burst: 1 << 30, Depth: 1 << 30})
	l.out["admit.try_admit_ns"] = l.ns(func() { sink.b = ctl.TryAdmit() == nil })
	return cerr
}

// rungCluster is a 100-node netsim PAST cluster with ample capacity.
func rungCluster(n int, r *rand.Rand, edit func(*past.Config)) (*simCluster, error) {
	cfg := past.DefaultConfig()
	edit(&cfg)
	caps := make([]int64, n)
	for i := range caps {
		caps[i] = 16 * gib
	}
	return buildSim(n, cfg, caps, r.Int63(), seams{})
}

func rungsPastSim(_ context.Context, l *ladder, r *rand.Rand, _ string) error {
	const n = 100
	body := make([]byte, 4<<10)
	r.Read(body)
	var serial int
	var operr error
	insert := func(c *simCluster) func() id.File {
		return func() id.File {
			serial++
			res, err := c.nodes[r.Intn(n)].Insert(past.InsertSpec{Name: fmt.Sprintf("rung-%d", serial), Content: body})
			if err != nil || !res.OK {
				operr = fmt.Errorf("past rung: insert failed: %v", err)
				return id.File{}
			}
			return res.FileID
		}
	}
	lookup := func(c *simCluster, node func() int, file func() id.File) func() {
		return func() {
			res, err := c.nodes[node()].Lookup(file())
			if err != nil || !res.Found {
				operr = fmt.Errorf("past rung: lookup failed: %v", err)
			}
		}
	}
	preload := func(c *simCluster) []id.File {
		files := make([]id.File, 200)
		for i := range files {
			files[i] = insert(c)()
		}
		return files
	}
	anyNode := func() int { return r.Intn(n) }

	cached, err := rungCluster(n, r, func(*past.Config) {})
	if err != nil {
		return err
	}
	ins := insert(cached)
	l.out["past.sim_insert_us"] = l.ns(func() { ins() }) / 1e3
	l.out["past.sim_insert_allocs"] = allocs(func() { ins() })
	one := ins()
	l.out["past.sim_lookup_hit_us"] = l.ns(lookup(cached, func() int { return 0 }, func() id.File { return one })) / 1e3
	l.out["obs.stats_snapshot_us"] = l.ns(func() { sink.any = cached.nodes[0].StatsSnapshot() }) / 1e3

	plain, err := rungCluster(n, r, func(c *past.Config) { c.CachePolicy = cache.None })
	if err != nil {
		return err
	}
	files := preload(plain)
	anyFile := func() id.File { return files[r.Intn(len(files))] }
	routed := lookup(plain, anyNode, anyFile)
	l.out["past.sim_lookup_routed_us"] = l.ns(routed) / 1e3
	l.out["past.sim_lookup_routed_allocs"] = allocs(routed)

	traced, err := rungCluster(n, r, func(c *past.Config) {
		c.CachePolicy = cache.None
		c.Tracer = obs.NewTracer(1, 64)
	})
	if err != nil {
		return err
	}
	files = preload(traced)
	l.out["obs.traced_lookup_extra_us"] = l.ns(lookup(traced, anyNode, anyFile))/1e3 - l.out["past.sim_lookup_routed_us"]

	coded, err := rungCluster(n, r, func(c *past.Config) {
		c.CachePolicy = cache.None
		c.ECMode = &ec.Params{Data: 4, Parity: 2}
	})
	if err != nil {
		return err
	}
	files = preload(coded)
	insEC := insert(coded)
	l.out["past.sim_ec_insert_us"] = l.ns(func() { insEC() }) / 1e3
	l.out["past.sim_ec_lookup_us"] = l.ns(lookup(coded, anyNode, anyFile)) / 1e3

	// Eight nodes and k=5: each file lands on five of them, so 1600
	// size-only files leave a node holding about a thousand.
	small, err := rungCluster(8, r, func(*past.Config) {})
	if err != nil {
		return err
	}
	for i := 0; i < 1600; i++ {
		if _, err := small.nodes[i%8].Insert(past.InsertSpec{Name: fmt.Sprintf("m-%d", i), Size: 1024}); err != nil {
			return err
		}
	}
	entries, _ := small.nodes[0].StoreSnapshot()
	if len(entries) == 0 {
		return fmt.Errorf("past rung: maintenance node holds nothing")
	}
	l.out["past.maintain_pass_ms"] = l.ns(small.nodes[0].Maintain) / 1e6 * 1000 / float64(len(entries))
	return operr
}

func rungsPastTCP(ctx context.Context, l *ladder, r *rand.Rand, _ string) error {
	const n = 5
	cfg := tcpConfig()
	cfg.CachePolicy = cache.None
	t, err := newTCPInstance(fleetSpec{n: n, cfg: cfg, capacity: 16 * gib}, r.Int63(), seams{}, 1, nil)
	if err != nil {
		return err
	}
	defer t.close()
	var files []file
	var failed bool
	insert := func() {
		f, out := t.insert(0, r.Intn(n), len(files), 4<<10)
		failed = failed || out.failed
		files = append(files, f)
	}
	for i := 0; i < 50; i++ {
		insert()
	}
	l.out["past.tcp_insert_us"] = l.ns(insert) / 1e3
	l.out["past.tcp_lookup_routed_us"] = l.ns(func() {
		failed = failed || t.lookup(r.Intn(n), files[r.Intn(len(files))]).failed
	}) / 1e3
	if failed {
		return fmt.Errorf("past rung: an op on the 5-node loopback fleet failed")
	}
	return nil
}
