package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"past/internal/ec"
	"past/internal/id"
)

// The erasure-coding durability experiment: the paper's section 3.6
// trade-off, measured. Both schemes are expressed as fragment codes at
// EQUAL storage overhead — k=3 replication is RS(1,2) (three full
// copies, any one suffices) and the coded mode is RS(4,8) (twelve
// quarter-size fragments, any four suffice), both 3.0x — and swept
// against per-node repair bandwidth under sustained crash-restart
// churn. Each model node runs the production ec.RepairQueue, so
// deterministic scheduling, dedup, and the strict per-epoch byte cap
// are the real code paths, not a re-implementation; what is simulated
// is only the fleet around them (fragment placement, node churn,
// leader-driven anti-entropy). A node crash loses its fragments AND
// its repair queue — repair state is soft state, rediscovered by the
// next anti-entropy pass, exactly as in the live daemons.
//
// The curves show why lazy repair is the half that makes erasure
// coding usable: without repair both schemes decay, the coded one
// faster once losses accumulate past its parity margin; with even a
// modest byte budget the coded mode holds every object at the same
// storage cost, because each repair moves 1/m of the object and the
// code tolerates 2x the dead fragments while the queue catches up.

// The sweep's fixed parameters.
const (
	ecdObjectSize = 48 << 10 // each object's size in bytes
	ecdChurnRate  = 0.08     // each node's per-epoch crash-restart probability
)

var (
	// ecdRepairBudgets are the per-node per-epoch repair byte caps swept
	// (0 = repair off), the largest last.
	ecdRepairBudgets = []int64{0, 96 << 10, 512 << 10}
	// ecdReplication is k=3 replication, modeled as RS(1,2); ecdCoded is
	// the coded mode, RS(4,8), at the same 3.0x overhead.
	ecdReplication = ec.Params{Data: 1, Parity: 2}
	ecdCoded       = ec.Params{Data: 4, Parity: 8}
)

// ECDurabilityConfig parameterizes the sweep.
type ECDurabilityConfig struct {
	// Nodes is the fleet size. Default 30.
	Nodes int
	// Objects is the object population. Default 120.
	Objects int
	// Epochs is the churn length. Default 24.
	Epochs int

	Seed int64
}

func (c ECDurabilityConfig) withDefaults() ECDurabilityConfig {
	if c.Nodes <= 0 {
		c.Nodes = 30
	}
	if c.Objects <= 0 {
		c.Objects = 120
	}
	if c.Epochs <= 0 {
		c.Epochs = 24
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ECDurabilityPoint is one (scheme, repair budget) cell of the sweep.
type ECDurabilityPoint struct {
	// Scheme renders the coding parameters ("rs(1,2)" is replication).
	Scheme string
	// Params are the cell's coding parameters.
	Params ec.Params
	// Budget is the per-node per-epoch repair byte cap (0: repair off).
	Budget int64
	// Alive[e] is the object count still reconstructible after epoch e.
	Alive []int
	// RepairsDone / RepairsDeferred / RepairBytes aggregate the fleet's
	// queue counters over the run.
	RepairsDone     int64
	RepairsDeferred int64
	RepairBytes     int64
	// MaxNodeEpochBytes is the most repair bytes any single node spent
	// in one epoch — the cap compliance witness (<= Budget when capped).
	MaxNodeEpochBytes int64
}

// Survival is the fraction of objects alive after the final epoch.
func (p ECDurabilityPoint) Survival() float64 {
	if len(p.Alive) == 0 {
		return 0
	}
	return float64(p.Alive[len(p.Alive)-1]) / float64(p.Alive[0])
}

// ECDurabilityResult carries the sweep, budget-major, scheme-minor.
type ECDurabilityResult struct {
	Config ECDurabilityConfig
	Points []ECDurabilityPoint
	// Fingerprint hashes every cell's survival curve and repair
	// counters in sweep order; seed-stable across runs.
	Fingerprint string
}

// At returns the cell for a scheme and budget, or nil.
func (r *ECDurabilityResult) At(scheme string, budget int64) *ECDurabilityPoint {
	for i := range r.Points {
		if r.Points[i].Scheme == scheme && r.Points[i].Budget == budget {
			return &r.Points[i]
		}
	}
	return nil
}

// ecdObject is one object's fragment placement: holders[idx] is the
// node index holding fragment idx, or -1.
type ecdObject struct {
	holders []int
	lost    bool // fell below m live fragments; unrecoverable
}

func (o *ecdObject) liveFragments() int {
	n := 0
	for _, h := range o.holders {
		if h >= 0 {
			n++
		}
	}
	return n
}

// RunECDurability sweeps repair bandwidth against object survival
// under churn for the replication baseline and the coded mode.
// Deterministic for a given configuration.
func RunECDurability(cfg ECDurabilityConfig) (*ECDurabilityResult, error) {
	cfg = cfg.withDefaults()
	if ecdCoded.Total() > cfg.Nodes {
		return nil, fmt.Errorf("experiments: ecdurability: %s needs %d nodes, have %d", ecdCoded, ecdCoded.Total(), cfg.Nodes)
	}

	res := &ECDurabilityResult{Config: cfg}
	fp := sha256.New()
	for _, budget := range ecdRepairBudgets {
		for _, p := range []ec.Params{ecdReplication, ecdCoded} {
			pt := runECDurabilityCell(cfg, p, budget)
			res.Points = append(res.Points, pt)
			fmt.Fprintf(fp, "%s/%d:", pt.Scheme, pt.Budget)
			for _, a := range pt.Alive {
				fmt.Fprintf(fp, "%d,", a)
			}
			fmt.Fprintf(fp, "%d/%d/%d/%d\n", pt.RepairsDone, pt.RepairsDeferred, pt.RepairBytes, pt.MaxNodeEpochBytes)
		}
	}
	res.Fingerprint = hex.EncodeToString(fp.Sum(nil))
	return res, nil
}

// cellSeed derives a per-cell seed so every (scheme, budget) cell has
// an independent but reproducible stream.
func cellSeed(base int64, p ec.Params, budget int64) int64 {
	h := sha256.New()
	binary.Write(h, binary.BigEndian, base)
	binary.Write(h, binary.BigEndian, int64(p.Data))
	binary.Write(h, binary.BigEndian, int64(p.Parity))
	binary.Write(h, binary.BigEndian, budget)
	s := h.Sum(nil)
	return int64(binary.BigEndian.Uint64(s[:8]) &^ (1 << 63))
}

func runECDurabilityCell(cfg ECDurabilityConfig, p ec.Params, budget int64) ECDurabilityPoint {
	rng := rand.New(rand.NewSource(cellSeed(cfg.Seed, p, budget)))
	total := p.Total()
	shardSize := (ecdObjectSize + p.Data - 1) / p.Data
	// One repair moves m survivor fragments in and one rebuilt fragment
	// out — the same cost model the node-level queue uses.
	repairCost := int64(shardSize) * int64(p.Data+1)

	// Place each object's fragments on distinct random nodes; the
	// object's repair leader is fixed (its first holder's slot in a
	// round-robin), standing in for the replica-set head.
	objs := make([]*ecdObject, cfg.Objects)
	leader := make([]int, cfg.Objects)
	for i := range objs {
		perm := rng.Perm(cfg.Nodes)
		o := &ecdObject{holders: make([]int, total)}
		for idx := 0; idx < total; idx++ {
			o.holders[idx] = perm[idx]
		}
		objs[i] = o
		leader[i] = i % cfg.Nodes
	}

	queues := make([]*ec.RepairQueue, cfg.Nodes)
	for n := range queues {
		queues[n] = ec.NewRepairQueue(cellSeed(cfg.Seed, p, budget) ^ int64(n))
	}

	pt := ECDurabilityPoint{Scheme: p.String(), Params: p, Budget: budget}
	pt.Alive = append(pt.Alive, cfg.Objects)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Churn: each node crash-restarts with probability ecdChurnRate,
		// losing its fragments and its (soft-state) repair queue.
		for n := 0; n < cfg.Nodes; n++ {
			if rng.Float64() >= ecdChurnRate {
				continue
			}
			for _, o := range objs {
				for idx, h := range o.holders {
					if h == n {
						o.holders[idx] = -1
					}
				}
			}
			queues[n] = ec.NewRepairQueue(cellSeed(cfg.Seed, p, budget) ^ int64(n) ^ int64(epoch+1)<<32)
		}

		// Mark objects that fell below m live fragments: unrecoverable.
		for _, o := range objs {
			if !o.lost && o.liveFragments() < p.Data {
				o.lost = true
			}
		}

		// Anti-entropy: each object's leader enqueues its missing
		// fragments (dedup and scheduling are the production queue's).
		if budget != 0 {
			for i, o := range objs {
				if o.lost {
					continue
				}
				for idx, h := range o.holders {
					if h < 0 {
						queues[leader[i]].Enqueue(ec.RepairItem{
							File: objFile(i), Index: idx, Cost: repairCost,
						})
					}
				}
			}

			// Drain every node's queue under the per-epoch byte cap.
			for n := 0; n < cfg.Nodes; n++ {
				start := rng.Intn(cfg.Nodes)
				spent := queues[n].Drain(budget, func(it ec.RepairItem) (int64, bool) {
					i := objIndex(it.File)
					o := objs[i]
					if o.lost || o.holders[it.Index] >= 0 {
						return 0, false
					}
					if o.liveFragments() < p.Data {
						return 0, false // below m survivors; nothing to rebuild from
					}
					// Re-place on a node not already holding a fragment
					// of this object.
					for d := 0; d < cfg.Nodes; d++ {
						cand := (start + d) % cfg.Nodes
						taken := false
						for _, h := range o.holders {
							if h == cand {
								taken = true
								break
							}
						}
						if !taken {
							o.holders[it.Index] = cand
							return repairCost, true
						}
					}
					return 0, false
				})
				if spent > pt.MaxNodeEpochBytes {
					pt.MaxNodeEpochBytes = spent
				}
			}
		}

		alive := 0
		for _, o := range objs {
			if !o.lost {
				alive++
			}
		}
		pt.Alive = append(pt.Alive, alive)
	}

	for _, q := range queues {
		c := q.ObsCounters()
		pt.RepairsDone += c["ec_repairs_done_total"]
		pt.RepairsDeferred += c["ec_repairs_deferred_total"]
		pt.RepairBytes += c["ec_repair_bytes_total"]
	}
	return pt
}

// objFile packs an object index into the id.File key the repair queue
// orders by; objIndex unpacks it.
func objFile(i int) (f id.File) {
	binary.BigEndian.PutUint64(f[:8], uint64(i))
	return f
}

func objIndex(f id.File) int {
	return int(binary.BigEndian.Uint64(f[:8]))
}

// RenderECDurability formats the sweep: one row per (budget, scheme)
// with survival at the end of the run and the repair-side counters.
func RenderECDurability(r *ECDurabilityResult) string {
	var b strings.Builder
	c := r.Config
	fmt.Fprintf(&b, "EC durability sweep: %d nodes, %d objects x %dKB, churn %.0f%%/epoch x %d epochs, overhead %.1fx both schemes\n",
		c.Nodes, c.Objects, ecdObjectSize>>10, 100*ecdChurnRate, c.Epochs, ecdCoded.Overhead())
	fmt.Fprintf(&b, "%10s %9s %9s %9s %9s %10s %12s %14s\n",
		"budget/ep", "scheme", "alive@1/3", "alive@2/3", "survive%", "repairs", "deferred", "max-node-ep")
	for _, p := range r.Points {
		e := len(p.Alive) - 1
		bud := "off"
		if p.Budget > 0 {
			bud = fmt.Sprintf("%dKB", p.Budget>>10)
		}
		fmt.Fprintf(&b, "%10s %9s %9d %9d %8.1f%% %10d %12d %12dKB\n",
			bud, p.Scheme, p.Alive[e/3], p.Alive[2*e/3], 100*p.Survival(),
			p.RepairsDone, p.RepairsDeferred, p.MaxNodeEpochBytes>>10)
	}
	fmt.Fprintf(&b, "fingerprint: %s\n", r.Fingerprint)
	return b.String()
}

// CheckECDurability asserts the properties the experiment exists to
// show: the repair byte cap is respected by every node in every epoch;
// at the largest budget the coded mode's survival matches or beats
// replication at the same storage overhead; and with repair off both
// schemes decay below their repaired survival.
func CheckECDurability(r *ECDurabilityResult) error {
	rep, ecs := ecdReplication.String(), ecdCoded.String()
	for _, p := range r.Points {
		if p.Budget > 0 && p.MaxNodeEpochBytes > p.Budget {
			return fmt.Errorf("ecdurability: %s at %dB budget: a node spent %dB in one epoch",
				p.Scheme, p.Budget, p.MaxNodeEpochBytes)
		}
	}
	top := ecdRepairBudgets[len(ecdRepairBudgets)-1]
	repTop, ecTop := r.At(rep, top), r.At(ecs, top)
	if repTop == nil || ecTop == nil {
		return fmt.Errorf("ecdurability: sweep missing top-budget cells")
	}
	if ecTop.Survival() < repTop.Survival() {
		return fmt.Errorf("ecdurability: at %dB budget EC survival %.3f below replication %.3f",
			top, ecTop.Survival(), repTop.Survival())
	}
	repOff, ecOff := r.At(rep, 0), r.At(ecs, 0)
	if repOff == nil || ecOff == nil {
		return fmt.Errorf("ecdurability: sweep missing repair-off cells")
	}
	if ecOff.Survival() >= ecTop.Survival() || repOff.Survival() >= repTop.Survival() {
		return fmt.Errorf("ecdurability: repair-off survival (ec %.3f, rep %.3f) did not decay below repaired (ec %.3f, rep %.3f)",
			ecOff.Survival(), repOff.Survival(), ecTop.Survival(), repTop.Survival())
	}
	return nil
}
