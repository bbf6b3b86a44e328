package loadgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"path/filepath"
	"time"

	"past/internal/admit"
	"past/internal/cachengine"
	"past/internal/ec"
	"past/internal/id"
	"past/internal/obs"
	"past/internal/past"
	"past/internal/pastry"
	"past/internal/stats"
	"past/internal/trace"
)

// SimConfig shapes a virtual-time run against an emulated cluster.
//
// The queueing model: every request enters through a deterministically
// chosen access node whose admission controller (in Offer mode) grants
// it service at an exact virtual token time or sheds it. Service
// itself is the real overlay operation — routing, replicas, caching —
// executed synchronously, with hop count converted to virtual service
// latency at HopLatency per hop. With Shed false the queue is
// unbounded: the open-loop excess accumulates as queueing delay, which
// is exactly the pathology admission control exists to prevent.
type SimConfig struct {
	// Nodes is the cluster size. Default 25.
	Nodes int
	// Seed drives the cluster build, the schedule, and the access-node
	// choice. Same seed, same everything — including the fingerprint.
	Seed int64
	// Requests is the total number of requests. Required.
	Requests int
	// Arrivals is the arrival process. Default NewConstant(200).
	Arrivals Arrivals
	// Workload is the request mix.
	Workload Workload
	// NodeRate is each access node's sustained service rate in
	// requests/second — the capacity knob. Aggregate cluster capacity
	// is Nodes * NodeRate. Default 100.
	NodeRate float64
	// Burst is the per-node token-bucket burst. Default 4.
	Burst int
	// Depth bounds the per-node queue when Shed is set. Default 8.
	Depth int
	// Shed enables admission control. When false the queue is
	// unbounded and nothing is ever rejected.
	Shed bool
	// HopLatency is the virtual per-hop service time. Default 1ms.
	HopLatency time.Duration
	// SLO classifies a completion as good. Default 500ms.
	SLO time.Duration
	// Capacity is per-node storage capacity in bytes. Default 1 GiB.
	Capacity int64
	// Cache, when non-nil, runs every node's cache engine with this
	// configuration (sharding, RAM cap, flash tier)
	// instead of the legacy-equivalent default. When the flash tier is
	// enabled, Flash.Dir is treated as a base directory and each node
	// gets its own subdirectory under it. The per-request fingerprint
	// is sensitive to this knob — cache behavior changes hop counts —
	// so fingerprint-checked experiments must leave it nil.
	Cache *cachengine.Config
	// Payloads makes inserts carry real (deterministic) content instead
	// of size-only accounting. The flash tier only spills objects whose
	// bytes it holds, so flash experiments need this on. Off by default:
	// the legacy experiments account sizes only.
	Payloads bool
	// EC, when non-nil, runs the cluster in erasure-coded storage mode:
	// inserts are RS(Data, Parity)-coded into fragments and lookups
	// reconstruct from any Data of them. Forces Payloads (content-free
	// inserts cannot be coded). The fingerprint is sensitive to this
	// knob — reconstruction changes hop accounting — so
	// fingerprint-compared experiments must hold it fixed.
	EC *ec.Params
}

func (sc SimConfig) withDefaults() SimConfig {
	if sc.Nodes <= 0 {
		sc.Nodes = 25
	}
	if sc.Arrivals == nil {
		sc.Arrivals = NewConstant(200)
	}
	if sc.NodeRate <= 0 {
		sc.NodeRate = 100
	}
	if sc.Burst <= 0 {
		sc.Burst = 4
	}
	if sc.Depth <= 0 {
		sc.Depth = 8
	}
	if sc.HopLatency <= 0 {
		sc.HopLatency = time.Millisecond
	}
	if sc.SLO <= 0 {
		sc.SLO = 500 * time.Millisecond
	}
	if sc.Capacity <= 0 {
		sc.Capacity = 1 << 30
	}
	return sc
}

// unboundedDepth stands in for "no queue bound" when shedding is off.
const unboundedDepth = 1 << 30

// RunSim executes a virtual-time run. All randomness is seeded and all
// request resolution happens synchronously on this goroutine in Offer
// order, so two runs with equal configs produce bit-identical Results,
// fingerprint included.
func RunSim(sc SimConfig) (*Result, error) {
	sc = sc.withDefaults()
	if sc.Requests <= 0 {
		return nil, fmt.Errorf("loadgen: Requests must be > 0")
	}
	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 16}
	cfg.K = 3
	cfg.CacheEngine = sc.Cache
	if sc.EC != nil {
		cfg.ECMode = sc.EC
		sc.Payloads = true
	}
	spec := past.ClusterSpec{
		N:        sc.Nodes,
		Cfg:      cfg,
		Capacity: func(int, *rand.Rand) int64 { return sc.Capacity },
		Seed:     sc.Seed,
	}
	if sc.Cache != nil && sc.Cache.Flash != nil {
		base := sc.Cache.Flash.Dir
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

	w := sc.Workload.withDefaults()
	rng := stats.NewRand(sc.Seed)
	ops := schedule(sc.Arrivals, w, sc.Requests, rng)

	depth := sc.Depth
	if !sc.Shed {
		depth = unboundedDepth
	}
	ctls := make([]*admit.Controller, sc.Nodes)
	for i := range ctls {
		ctls[i] = admit.New(admit.Config{Rate: sc.NodeRate, Burst: sc.Burst, Depth: depth})
	}

	var (
		epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		ids   = make([]id.File, w.Files)
		res   = &Result{}
		fp    = sha256.New()
	)
	exec := func(i int, o op, access *past.Node, d admit.Decision) {
		res.Issued++
		if !d.Granted {
			res.Shed++
			fpRecord(fp, i, o, false, false, 0, 0)
			return
		}
		var found bool
		var err error
		hops := 0
		switch {
		case o.Op == trace.OpInsert:
			spec := past.InsertSpec{Name: trace.FileName(o.File), Size: o.Size}
			if sc.Payloads {
				spec.Content = simPayload(o.File, o.Size)
			}
			var ir *past.InsertResult
			ir, err = access.Insert(spec)
			if err == nil && ir.OK {
				ids[o.File] = ir.FileID
				found = true
				hops = ir.Hops
			} else if err == nil {
				err = fmt.Errorf("loadgen: insert rejected: %s", ir.Reason)
			}
		case ids[o.File].IsZero():
			// Lookup scheduled before its insert was served (open
			// loop). The access node answers not-found locally.
		default:
			var lr *past.LookupResult
			lr, err = access.Lookup(ids[o.File])
			if err == nil {
				found = lr.Found
				hops = lr.Hops
			}
		}
		lat := d.Wait + sc.HopLatency*time.Duration(hops+1)
		switch {
		case err == nil && found:
			res.OK++
			if lat <= sc.SLO {
				res.Good++
			}
		case err == nil:
			res.NotFound++
		default:
			res.Errors++
		}
		if err == nil {
			res.Latency.Record(lat.Nanoseconds())
		}
		fpRecord(fp, i, o, true, found, hops, lat)
	}

	for i, o := range ops {
		i, o := i, o
		ai := rng.Intn(sc.Nodes)
		access := cluster.Nodes[ai]
		ctls[ai].Offer(epoch.Add(o.At), func(d admit.Decision) {
			exec(i, o, access, d)
		})
	}
	for _, c := range ctls {
		c.Drain()
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

// simPayload builds deterministic content for file index f.
func simPayload(f int32, size int64) []byte {
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
