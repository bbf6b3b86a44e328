package main

import (
	"context"
	"crypto/sha1"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"past/internal/cache"
	"past/internal/cachengine"
	"past/internal/ec"
	"past/internal/experiments"
	"past/internal/id"
	"past/internal/obs"
	"past/internal/past"
	"past/internal/pastry"
	"past/internal/stats"
	"past/internal/topology"
	"past/internal/trace"
)

type opKind uint8

const (
	opLookup opKind = iota
	opInsert
)

func (k opKind) String() string {
	if k == opInsert {
		return "insert"
	}
	return "lookup"
}

// op is one generated request. It is all the program under test sees of
// the seed: which access point, which file, how many bytes.
type op struct {
	kind opKind
	ap   int // access point
	file int // lookups: index into the preload, or into the files this client inserted
	size int // inserts: content bytes
}

// outcome is what one op came to.
type outcome struct {
	kind opKind
	lat  time.Duration // of the client's call into the system, harness work excluded
	// failed: the op errored, was refused, found nothing for an
	// acknowledged file, or returned bytes that do not hash to what was
	// inserted.
	failed bool
	// rejected: the storage policy refused the insert after all file
	// diversions. On sim-* this is the quantity the paper measures, so
	// it is an outcome, not a failure of the op.
	rejected bool
	// skipped: a sim-cache reference to a file whose insert was
	// rejected; nothing is sent, as in the paper's replay.
	skipped   bool
	hops      int  // overlay hops the reply reports
	hasHops   bool // the reply reports hops (every sim op; tcp lookups)
	fromCache bool
	bytes     int64 // user bytes acknowledged (inserts)
	attempts  int   // insert attempts: 1 + file diversions
}

// final is what a workload instance reports once its ops are done.
type final struct {
	heldBytes int64   // bytes the nodes hold for the acknowledged files
	userBytes int64   // acknowledged user bytes, preload included
	util      float64 // global storage utilisation in [0, 1]
	counters  map[string]float64
}

// instance is one built fleet or cluster with its op streams.
type instance interface {
	// do runs op i of a client's stream and waits for the reply (closed
	// loop). It returns false when the stream has ended.
	do(client, i int) (outcome, bool)
	// finish collects the end-of-run figures; the measured phase is over.
	finish() (final, error)
	close() error
}

// workload is a named set of inputs. Sizes are fixed here; only the
// seed and the run length are arguments.
type workload struct {
	name    string
	why     string
	clients int
	primary opKind // the op type op_p50_us and op_p99_us are taken from
	// finite: the op stream is a trace replayed to its end (sim-*); a
	// round is one complete replay, not a time slice.
	finite bool
	setup  func(seed int64, sm seams, clients int, workdir string, smoke bool) (instance, error)
}

var workloads = []workload{
	{
		name:    "tcp-read",
		why:     "32-node loopback fleet, Zipf(0.8) 4 KiB lookups over a working set 16x the caches: small messages times hops, so wire, transport and cache hop-shortening dominate",
		clients: 2, primary: opLookup, setup: setupTCPRead,
	},
	{
		name:    "tcp-write",
		why:     "16-node loopback fleet on logstore, half inserts of 1-16 KiB and half lookups: k-way fan-out, payload bytes in the codec and logstore.Add, with reads sharing stores and connections",
		clients: 2, primary: opInsert, setup: setupTCPWrite,
	},
	{
		name:    "tcp-ec",
		why:     "16-node loopback fleet in rs(4,2) mode with no cache, half inserts and half lookups of 16-64 KiB: the only workload where rs, ec and the hedged fragment fetches do most of the work",
		clients: 2, primary: opLookup, setup: setupTCPEC,
	},
	{
		name:    "sim-fill",
		why:     "section 5.1 on netsim: insert-only NLANR sizes into d1 capacities until the trace ends; store policy, diversion and routing with no wire, cache or disk, so a wire or cache change predicts no change",
		clients: 1, primary: opInsert, finite: true, setup: setupSimFill,
	},
	{
		name:    "sim-cache",
		why:     "section 5.2 (Figure 8, GD-S) on netsim: web trace from 775 clients in 8 sites; cache policy and locality routing without wire cost, the pair of tcp-read",
		clients: 1, primary: opLookup, finite: true, setup: setupSimCache,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tcpConfig is the PAST configuration of the loopback fleets.
func tcpConfig() past.Config {
	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 16}
	cfg.K = 3
	return cfg
}

// file is a file the benchmark inserted: its id and the SHA-1 of its
// content, which every lookup reply is checked against.
type file struct {
	id  id.File
	sum [sha1.Size]byte
}

// content is the payload of the n-th file of a stream: pseudo-random
// bytes from the stream's seed, so the same seed inserts the same bytes.
func content(seed int64, n, size int) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed + int64(n)*7919)).Read(b)
	return b
}

// tcpInstance drives a loopback fleet through the client RPCs.
type tcpInstance struct {
	fleet *tcpFleet
	rec   *recorder               // nil in an untraced run
	gen   []func(inserted int) op // per client
	seed  int64
	files [][]file // per client: files that client inserted, in order
	// shared: files every client may look up (the preload)
	shared []file
	acked  []int64 // per client: user bytes acknowledged
}

func (t *tcpInstance) insert(client, ap, n, size int) (file, outcome) {
	body := content(t.seed+int64(client)<<32, n, size)
	out := outcome{kind: opInsert}
	msg := &past.ClientInsert{Name: fmt.Sprintf("bench-%d-%d-%d", t.seed, client, n), Content: body}
	var reply any
	var err error
	out.lat = t.rec.timeCall(func() {
		reply, err = t.fleet.client.InvokeAddrContext(context.Background(), t.fleet.addrs[ap], msg)
	})
	r, ok := reply.(*past.ClientInsertReply)
	if err != nil || !ok || !r.OK {
		out.failed = true
		return file{}, out
	}
	out.bytes, out.attempts = int64(size), r.Attempts
	return file{id: r.FileID, sum: sha1.Sum(body)}, out
}

func (t *tcpInstance) lookup(ap int, f file) outcome {
	out := outcome{kind: opLookup}
	if f.id.IsZero() { // its insert failed, and was counted then
		out.skipped = true
		return out
	}
	var reply any
	var err error
	out.lat = t.rec.timeCall(func() {
		reply, err = t.fleet.client.InvokeAddrContext(context.Background(), t.fleet.addrs[ap], &past.ClientLookup{File: f.id})
	})
	r, ok := reply.(*past.ClientLookupReply)
	if err != nil || !ok || !r.Found || sha1.Sum(r.Content) != f.sum {
		out.failed = true
		return out
	}
	out.hops, out.hasHops, out.fromCache = r.Hops, true, r.FromCache
	return out
}

func (t *tcpInstance) do(client, _ int) (outcome, bool) {
	o := t.gen[client](len(t.files[client]))
	if o.kind == opInsert {
		f, out := t.insert(client, o.ap, len(t.files[client]), o.size)
		t.files[client] = append(t.files[client], f)
		t.acked[client] += out.bytes
		return out, true
	}
	if t.shared != nil {
		return t.lookup(o.ap, t.shared[o.file]), true
	}
	return t.lookup(o.ap, t.files[client][o.file]), true
}

func (t *tcpInstance) finish() (final, error) {
	snap := sumSnapshots(t.fleet.nodes)
	held, err := t.fleet.heldBytes(snap.Get(obs.CtrECFragmentBytes))
	if err != nil {
		return final{}, err
	}
	fin := final{heldBytes: held, counters: nodeCounters(snap)}
	for _, a := range t.acked {
		fin.userBytes += a
	}
	var used, capacity int64
	for _, n := range t.fleet.nodes {
		used += n.StoredBytes()
		capacity += n.Capacity()
	}
	fin.util = float64(used) / float64(capacity)
	for _, ls := range t.fleet.stores {
		if ls != nil {
			fin.counters["logstore.fsyncs"] += float64(ls.Stats().Fsyncs.Load())
			fin.counters["logstore.wal_bytes"] += float64(ls.Stats().WALBytes.Load())
		}
	}
	fin.counters["store.replica_bytes"] = float64(used)
	return fin, nil
}

func (t *tcpInstance) close() error { return t.fleet.close() }

// sumSnapshots adds up every node's public counters.
func sumSnapshots(nodes []*past.Node) obs.Snapshot {
	sum := nodes[0].StatsSnapshot()
	for _, n := range nodes[1:] {
		for name, v := range n.StatsSnapshot().Counters {
			sum.Counters[name] += v
		}
	}
	return sum
}

// nodeCounters picks the counters the per-layer metrics use out of a
// summed snapshot of all nodes.
func nodeCounters(s obs.Snapshot) map[string]float64 {
	dst := map[string]float64{}
	for _, c := range []struct{ key, ctr string }{
		{"cache.hits", obs.CtrCacheHits}, {"cache.misses", obs.CtrCacheMisses},
		{"cache.evictions", obs.CtrCacheEvictions}, {"cache.admit_rejects", obs.CtrCacheAdmitRejects},
		{"ec.frag_reads", obs.CtrECFragReads}, {"ec.reconstructs", obs.CtrECReconstructs},
		{"ec.crc_failures", obs.CtrECCRCFailures},
		{"past.replicas_stored", obs.CtrReplicasStored}, {"past.diverted_in", obs.CtrDivertedIn},
	} {
		dst[c.key] = float64(s.Get(c.ctr))
	}
	return dst
}

// newTCPInstance builds the fleet and gives each client its own seeded
// op generator.
func newTCPInstance(spec fleetSpec, seed int64, sm seams, clients int, gen func(r *rand.Rand, inserted int) op) (*tcpInstance, error) {
	fleet, err := buildFleet(spec, seed, sm)
	if err != nil {
		return nil, err
	}
	t := &tcpInstance{fleet: fleet, rec: sm.rec, seed: seed, files: make([][]file, clients), acked: make([]int64, clients)}
	for c := 0; c < clients; c++ {
		t.gen = append(t.gen, clientStream(seed, c, gen))
	}
	return t, nil
}

// clientStream is client c's op stream: the generator fed from a source
// seeded by the run's seed and the client's number.
func clientStream(seed int64, c int, gen func(r *rand.Rand, inserted int) op) func(inserted int) op {
	r := rand.New(rand.NewSource(seed ^ int64(c+1)*0x9E3779B9))
	return func(inserted int) op { return gen(r, inserted) }
}

const gib = 1 << 30

func setupTCPRead(seed int64, sm seams, clients int, workdir string, smoke bool) (instance, error) {
	nodes, files := 32, 4000
	if smoke {
		nodes, files = 6, 40
	}
	cfg := tcpConfig()
	cfg.CacheEngine = &cachengine.Config{RAMBytes: 1 << 20}
	t, err := newTCPInstance(fleetSpec{n: nodes, cfg: cfg, capacity: gib}, seed, sm, clients, readGen(nodes, files))
	if err != nil {
		return nil, err
	}
	// Preload: popularity rank i is file i, inserted through a seeded
	// choice of access point.
	r := rand.New(rand.NewSource(seed ^ 0x10AD))
	for i := 0; i < files; i++ {
		f, out := t.insert(0, r.Intn(nodes), i, 4096)
		if out.failed {
			t.close()
			return nil, fmt.Errorf("preload insert %d failed", i)
		}
		t.shared = append(t.shared, f)
		t.acked[0] += out.bytes
	}
	return t, nil
}

// readGen draws Zipf(0.8) lookups over the preloaded files, each through
// a uniformly chosen access point.
func readGen(nodes, files int) func(r *rand.Rand, inserted int) op {
	zipf := stats.NewZipf(files, 0.8)
	return func(r *rand.Rand, _ int) op {
		return op{kind: opLookup, ap: r.Intn(nodes), file: zipf.Rank(r)}
	}
}

// mixedGen draws half inserts of a uniformly chosen size and half
// lookups of a uniformly chosen file the same client already inserted.
func mixedGen(nodes int, sizes []int) func(r *rand.Rand, inserted int) op {
	return func(r *rand.Rand, inserted int) op {
		o := op{ap: r.Intn(nodes)}
		if insert := r.Intn(2) == 0; insert || inserted == 0 {
			o.kind, o.size = opInsert, sizes[r.Intn(len(sizes))]
		} else {
			o.kind, o.file = opLookup, r.Intn(inserted)
		}
		return o
	}
}

func setupTCPWrite(seed int64, sm seams, clients int, workdir string, smoke bool) (instance, error) {
	nodes := 20
	if smoke {
		nodes = 5
	}
	cfg := tcpConfig()
	cfg.CacheEngine = &cachengine.Config{RAMBytes: 1 << 20}
	return newTCPInstance(fleetSpec{n: nodes, cfg: cfg, capacity: 4 * gib, logStore: true, workdir: workdir}, seed, sm, clients,
		mixedGen(nodes, []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10}))
}

func setupTCPEC(seed int64, sm seams, clients int, workdir string, smoke bool) (instance, error) {
	nodes := 20
	if smoke {
		nodes = 8
	}
	cfg := tcpConfig()
	cfg.CachePolicy = cache.None
	cfg.ECMode = &ec.Params{Data: 4, Parity: 2}
	return newTCPInstance(fleetSpec{n: nodes, cfg: cfg, capacity: 4 * gib}, seed, sm, clients,
		mixedGen(nodes, []int{16 << 10, 32 << 10, 64 << 10}))
}

// The netsim workloads are the benchmark's own mirror of
// experiments.RunStorage and experiments.RunCaching: the same seeds, the
// same draws, the same calls, with per-op timing and the seam wrappers
// added. TestSimMirrorsExperiments compares the two at 60 nodes.

const webMeanSize = 10_517 // published NLANR mean, as in experiments

// simBaseSeed is the seed of the cluster (ids, positions, capacities)
// and of the trace (sizes, order, popularity, clients) of both netsim
// workloads. At 100 nodes the paper's figures swing with the layout far
// more than any bound allows (across eight seeds: utilisation 94-99.99%,
// rejected inserts 0.07-3.6%, allocations per insert 85-136), so the
// layout is held and --seed varies only who issues the requests. Seed 4
// is the layout whose end state is nearest the paper's (>= 98% utilised,
// < 1% rejected). README.md, "What the seed varies", has the numbers.
const simBaseSeed = 4

// simFiles is experiments' filesFor: the unique-file count whose k
// replicas overshoot the nominal d1 capacity by the default ratio.
func simFiles(nodes, k int) int {
	totalCap := float64(nodes) * experiments.D1.M * 1 * experiments.MB
	return int(experiments.DefaultOvershoot * totalCap / (float64(k) * webMeanSize))
}

func simConfig(policy cache.Policy) past.Config {
	cfg := past.DefaultConfig() // b=4 l=32 k=5 tpri=0.1 tdiv=0.05, 3 retries, c=1
	cfg.CachePolicy = policy
	return cfg
}

type simInstance struct {
	cluster *simCluster
	rec     *recorder // nil in an untraced run
	events  []trace.Event
	issuer  func(ev trace.Event) *past.Node
	fileIDs map[int32]id.File // sim-cache: where each inserted file ended up
	user    int64
}

func (s *simInstance) do(_, i int) (outcome, bool) {
	if i >= len(s.events) {
		return outcome{}, false
	}
	ev := s.events[i]
	node := s.issuer(ev)
	if ev.Op == trace.OpInsert {
		out := outcome{kind: opInsert}
		spec := past.InsertSpec{Name: trace.FileName(ev.File), Size: ev.Size, Salt: uint64(ev.File) + 1}
		var res *past.InsertResult
		var err error
		out.lat = s.rec.timeCall(func() { res, err = node.Insert(spec) })
		if err != nil {
			out.failed = true
			return out, true
		}
		out.hops, out.hasHops, out.attempts = res.Hops, true, res.Attempts
		if !res.OK {
			out.rejected = true
			return out, true
		}
		out.bytes = ev.Size
		s.user += ev.Size
		if s.fileIDs != nil {
			s.fileIDs[ev.File] = res.FileID
		}
		return out, true
	}
	out := outcome{kind: opLookup}
	f, ok := s.fileIDs[ev.File]
	if !ok {
		out.skipped = true
		return out, true
	}
	var res *past.LookupResult
	var err error
	out.lat = s.rec.timeCall(func() { res, err = node.Lookup(f) })
	if err != nil || !res.Found {
		out.failed = true
		return out, true
	}
	out.hops, out.hasHops, out.fromCache = res.Hops, true, res.FromCache
	return out, true
}

func (s *simInstance) finish() (final, error) {
	held := s.cluster.storedBytes()
	fin := final{heldBytes: held, userBytes: s.user, util: float64(held) / float64(s.cluster.caps),
		counters: nodeCounters(sumSnapshots(s.cluster.nodes))}
	fin.counters["netsim.messages"] = float64(s.cluster.net.Messages())
	fin.counters["store.replica_bytes"] = float64(held)
	return fin, nil
}

func (s *simInstance) close() error { return nil }

func simCaps(nodes int, seed int64) []int64 {
	return experiments.D1.Sample(rand.New(rand.NewSource(seed^0xCAFE)), nodes, 1)
}

func setupSimFill(seed int64, sm seams, _ int, _ string, smoke bool) (instance, error) {
	nodes := simFillNodes
	if smoke {
		nodes = 20
	}
	return newSimFill(nodes, simBaseSeed, seed, sm)
}

// newSimFill is experiments.RunStorage at Seed=base, except that the
// node issuing each insert is drawn from clientSeed.
func newSimFill(nodes int, base, clientSeed int64, sm seams) (*simInstance, error) {
	cfg := simConfig(cache.None)
	w := trace.InsertOnly(simFiles(nodes, cfg.K), trace.NLANRSizes(), base)
	cluster, err := buildSim(nodes, cfg, simCaps(nodes, base), base, sm)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(clientSeed ^ 0xC11E17))
	return &simInstance{cluster: cluster, rec: sm.rec, events: w.Events,
		issuer: func(trace.Event) *past.Node { return cluster.nodes[r.Intn(len(cluster.nodes))] }}, nil
}

func setupSimCache(seed int64, sm seams, _ int, _ string, smoke bool) (instance, error) {
	nodes, clients := simCacheNodes, 775
	if smoke {
		nodes, clients = 20, 96
	}
	// The seed turns each site's round-robin of clients over its nodes.
	r := rand.New(rand.NewSource(seed ^ 0x707))
	turns := make([]int, 8)
	for i := range turns {
		turns[i] = r.Intn(nodes)
	}
	return newSimCache(nodes, clients, simBaseSeed, turns, sm)
}

// newSimCache is experiments.RunCaching at Seed=base, except that site
// s's clients start their round-robin over the site's nodes turns[s]
// places on (nil: none, as in experiments).
func newSimCache(nodes, clients int, base int64, turns []int, sm seams) (*simInstance, error) {
	cfg := simConfig(cache.GDS)
	// A Zipf(0.8) stream at 2.15 requests per URL references ~61% of the
	// population; experiments inflates the population to match.
	unique := simFiles(nodes, cfg.K) * 100 / 61
	spec := trace.DefaultWebSpec(unique, base)
	spec.Clients, spec.Sites = clients, 8
	w := trace.WebTrace(spec)
	cluster, err := buildSim(nodes, cfg, simCaps(nodes, base), base, sm)
	if err != nil {
		return nil, err
	}
	issuers := mapClientsToNodes(cluster, w, base, turns)
	return &simInstance{cluster: cluster, rec: sm.rec, events: w.Events, fileIDs: make(map[int32]id.File, w.Files),
		issuer: func(ev trace.Event) *past.Node { return issuers[ev.Client] }}, nil
}

// mapClientsToNodes is experiments' client mapping: each trace site gets
// a random centre, and its clients are spread round-robin over the
// nodes nearest that centre, starting turns[site] places on.
func mapClientsToNodes(c *simCluster, w *trace.Workload, seed int64, turns []int) []*past.Node {
	r := rand.New(rand.NewSource(seed ^ 0x517e5))
	centers := make([]topology.Point, w.Sites)
	for i := range centers {
		centers[i] = topology.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
	}
	poolSize := max(len(c.nodes)/(2*w.Sites), 1)
	pools := make([][]*past.Node, w.Sites)
	for s := range pools {
		type nd struct {
			n *past.Node
			d float64
		}
		all := make([]nd, 0, len(c.nodes))
		for _, n := range c.nodes {
			p, _ := c.net.Position(n.ID())
			all = append(all, nd{n: n, d: topology.Distance(p, centers[s])})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
		for i := 0; i < poolSize; i++ {
			pools[s] = append(pools[s], all[i].n)
		}
	}
	clients := make([]*past.Node, w.Clients)
	next := make([]int, w.Sites)
	copy(next, turns)
	for cl := range clients {
		s := w.SiteOf[cl]
		clients[cl] = pools[s][next[s]%len(pools[s])]
		next[s]++
	}
	return clients
}
