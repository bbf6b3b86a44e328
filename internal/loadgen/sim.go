package loadgen

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"past/internal/admit"
	"past/internal/cachengine"
	"past/internal/ec"
	"past/internal/id"
	"past/internal/netsim"
	"past/internal/obs"
	"past/internal/past"
	"past/internal/pastry"
	"past/internal/stats"
	"past/internal/trace"
)

// SimConfig describes one load run: the cluster, its admission
// control, the offered load and the request mix. RunSim executes it in
// virtual time against an emulated cluster; Run executes its offered
// load and request mix on the real clock against a live access point.
//
// The queueing model: every request enters through a deterministically
// chosen access node whose admission controller reserves it a place in
// the node's FIFO queue — served at an exact virtual token time — or
// sheds it. Requests are served in the order of those times. Service
// itself is the real overlay operation — routing, replicas, caching —
// executed synchronously, with hop count converted to virtual service
// latency at HopLatency per hop. With Shed false the queue is
// unbounded: the open-loop excess accumulates as queueing delay, which
// is exactly the pathology admission control exists to prevent.
type SimConfig struct {
	// Nodes is the cluster size.
	Nodes int
	// Seed drives the cluster build, the schedule, and the access-node
	// choice. Same seed, same everything — including the fingerprint.
	Seed int64
	// Requests is the total number of requests.
	Requests int
	// Rate is the offered load in requests/second.
	Rate float64
	// Arrivals names the arrival process: "constant", "poisson" or
	// "square" (bursts at Rate against a background of Rate/5).
	Arrivals string
	// Workload is the request mix.
	Workload Workload
	// NodeRate is each access node's sustained service rate in
	// requests/second — the capacity knob (see Capacity).
	NodeRate float64
	// Burst is the per-node token-bucket burst.
	Burst int
	// Depth bounds the per-node queue when Shed is set.
	Depth int
	// Shed enables admission control. When false the queue is
	// unbounded and nothing is ever rejected.
	Shed bool
	// HopLatency is the virtual per-hop service time.
	HopLatency time.Duration
	// SLO classifies a completion as good.
	SLO time.Duration
	// Cache, when non-nil, runs every node's cache engine with this
	// configuration (RAM cap, flash tier), and inserts carry
	// real content, since the flash tier spills only objects whose
	// bytes it holds. A flash tier lives in a temporary directory,
	// one subdirectory per node, removed when the run ends; Flash.Dir
	// is not read. The fingerprint is sensitive to this knob — cache
	// behavior changes hop counts.
	Cache *cachengine.Config
	// EC, when non-nil, runs the cluster in erasure-coded storage mode:
	// inserts carry content, are RS(Data, Parity)-coded into fragments,
	// and lookups reconstruct from any Data of them. The fingerprint is
	// sensitive to this knob — reconstruction changes hop accounting.
	EC *ec.Params
}

// DefaultSimConfig is the one set of load-run defaults: past-load's
// flags start from it, and every sweep and test changes only what it
// measures. It tunes no cache engine and codes nothing.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		Nodes:      25,
		Seed:       1,
		Requests:   2000,
		Rate:       200,
		Arrivals:   "constant",
		Workload:   Workload{Files: 128, Alpha: 0.8, LookupFrac: 0.9, MaxPayload: 4096},
		NodeRate:   100,
		Burst:      4,
		Depth:      8,
		Shed:       true,
		HopLatency: time.Millisecond,
		SLO:        500 * time.Millisecond,
	}
}

// Capacity is the cluster's aggregate service rate, Nodes * NodeRate,
// in requests/second.
func (sc SimConfig) Capacity() float64 {
	return float64(sc.Nodes) * sc.NodeRate
}

// nodeCapacity is each emulated node's storage, large enough that a
// load run never fills a node: the runs measure request handling.
const nodeCapacity = 1 << 30

// unboundedDepth stands in for "no queue bound" when shedding is off.
const unboundedDepth = 1 << 30

// RunSim executes a virtual-time run. All randomness is seeded and
// every request runs synchronously on this goroutine in service order,
// so two runs with equal configs produce bit-identical Results,
// fingerprint included.
func RunSim(sc SimConfig) (*Result, error) {
	if sc.Requests <= 0 || sc.Nodes <= 0 {
		return nil, fmt.Errorf("loadgen: Requests and Nodes must be > 0")
	}
	arr, err := newArrivals(sc.Arrivals, sc.Rate)
	if err != nil {
		return nil, err
	}
	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 16}
	cfg.K = 3
	cfg.CacheEngine = sc.Cache
	cfg.ECMode = sc.EC
	payloads := sc.Cache != nil || sc.EC != nil
	spec := past.ClusterSpec{
		N:        sc.Nodes,
		Cfg:      cfg,
		Capacity: func(int, *rand.Rand) int64 { return nodeCapacity },
		Seed:     sc.Seed,
	}
	if sc.Cache != nil && sc.Cache.Flash != nil {
		base, err := os.MkdirTemp("", "past-loadgen-flash-*")
		if err != nil {
			return nil, fmt.Errorf("loadgen: flash tier: %w", err)
		}
		defer os.RemoveAll(base)
		spec.PerNode = func(i int, c past.Config) past.Config {
			ec := *sc.Cache
			fc := *ec.Flash
			fc.Dir = filepath.Join(base, fmt.Sprintf("node-%03d", i))
			ec.Flash = &fc
			c.CacheEngine = &ec
			return c
		}
	}
	cluster, err := past.NewCluster(spec)
	if err != nil {
		return nil, err
	}

	w := sc.Workload
	rng := stats.NewRand(sc.Seed)
	ops := schedule(arr, w, sc.Requests, rng)

	depth := sc.Depth
	if !sc.Shed {
		depth = unboundedDepth
	}
	ctls := make([]*admit.Controller, sc.Nodes)
	for i := range ctls {
		ctls[i] = admit.New(admit.Config{Rate: sc.NodeRate, Burst: sc.Burst, Depth: depth})
	}

	// Admission depends only on arrival times, so every decision is
	// made first; the requests then run in service order — arrival plus
	// queueing wait, ties in arrival order — which is the order a live
	// cluster serves them in.
	type request struct {
		i      int
		access *past.Node
		d      admit.Decision
	}
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	reqs := make([]request, len(ops))
	for i, o := range ops {
		ai := rng.Intn(sc.Nodes)
		reqs[i] = request{i, cluster.Nodes[ai], ctls[ai].Reserve(epoch.Add(o.At))}
	}
	slices.SortStableFunc(reqs, func(a, b request) int {
		return cmp.Compare(ops[a.i].At+a.d.Wait, ops[b.i].At+b.d.Wait)
	})

	ids := make([]id.File, w.Files)
	res := &Result{}
	fp := sha256.New()
	for _, r := range reqs {
		i, o := r.i, ops[r.i]
		if !r.d.Granted {
			res.record(false, false, netsim.ErrOverloaded, 0, sc.SLO)
			fpRecord(fp, i, o, false, false, 0, 0)
			continue
		}
		var found bool
		var err error
		hops := 0
		routed := true
		switch {
		case o.Op == trace.OpInsert:
			spec := past.InsertSpec{Name: trace.FileName(o.File), Size: o.Size}
			if payloads {
				spec.Content = payload(o.File, o.Size)
			}
			var ir *past.InsertResult
			ir, err = r.access.Insert(spec)
			if err == nil && ir.OK {
				ids[o.File] = ir.FileID
				found = true
				hops = ir.Hops
			} else if err == nil {
				err = fmt.Errorf("loadgen: insert rejected: %s", ir.Reason)
			}
		case ids[o.File].IsZero():
			// Lookup served before its insert (open loop). The access
			// node answers not-found locally.
			routed = false
		default:
			var lr *past.LookupResult
			lr, err = r.access.Lookup(ids[o.File])
			if err == nil {
				found = lr.Found
				hops = lr.Hops
			}
		}
		lat := r.d.Wait + sc.HopLatency*time.Duration(hops+1)
		res.record(found, routed, err, lat, sc.SLO)
		fpRecord(fp, i, o, true, found, hops, lat)
	}

	res.Elapsed = ops[len(ops)-1].At
	if res.Elapsed <= 0 {
		res.Elapsed = time.Second
	}
	res.Fingerprint = hex.EncodeToString(fp.Sum(nil))
	for _, n := range cluster.Nodes {
		st := n.Cache().Stats()
		res.Cache.RAMHits += st.RAMHits
		res.Cache.FlashHits += st.FlashHits
		res.Cache.Misses += st.Misses
		res.Cache.Evictions += st.Evictions
		res.Cache.FlashSpills += st.FlashSpills
		res.Cache.FlashSegDrops += st.FlashSegDrops
		if sc.EC != nil {
			snap := n.StatsSnapshot()
			res.Cache.FragHits += snap.Get(obs.CtrECFragReads)
			res.Cache.FragCRCDrops += snap.Get(obs.CtrECCRCFailures)
			res.Cache.Reconstructs += snap.Get(obs.CtrECReconstructs)
		}
		n.Cache().Close()
	}
	return res, nil
}

// payload builds deterministic content for file index f, so re-runs
// insert identical bytes.
func payload(f int32, size int64) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(int64(f)*31 + int64(i))
	}
	return b
}

// fpRecord folds one request's outcome into the fingerprint.
func fpRecord(h hash.Hash, i int, o op, granted, found bool, hops int, lat time.Duration) {
	var rec [40]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(i))
	rec[8] = byte(o.Op)
	binary.LittleEndian.PutUint32(rec[9:], uint32(o.File))
	if granted {
		rec[13] = 1
	}
	if found {
		rec[14] = 1
	}
	binary.LittleEndian.PutUint64(rec[16:], uint64(hops))
	binary.LittleEndian.PutUint64(rec[24:], uint64(lat))
	binary.LittleEndian.PutUint64(rec[32:], uint64(o.At))
	h.Write(rec[:])
}
