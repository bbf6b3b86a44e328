package ec

import (
	"hash/fnv"
	"sort"
	"sync"

	"past/internal/id"
	"past/internal/obs"
)

// RepairItem is one missing or corrupt fragment awaiting repair. Cost
// is the estimated bytes the repair will move (fetching m survivor
// shards plus re-placing the rebuilt one); the queue's bandwidth cap is
// enforced against it before the repair starts.
type RepairItem struct {
	File  id.File
	Index int
	Cost  int64
}

// fragKey names one fragment of one file.
type fragKey struct {
	file id.File
	idx  int
}

// RepairQueue is a node's lazy-repair work queue. Anti-entropy probes
// enqueue missing fragments (deduplicated by file and index); each
// maintenance pass drains the queue in a deterministic seeded order
// under a strict per-pass byte budget, so repair traffic after a
// correlated failure is spread over many passes instead of spiking.
type RepairQueue struct {
	mu    sync.Mutex
	seed  int64
	items map[fragKey]RepairItem

	enqueued int64
	repaired int64
	failed   int64
	deferred int64
	bytes    int64
}

// NewRepairQueue creates a queue whose drain order is a pure function
// of seed and the pending (file, index) pairs.
func NewRepairQueue(seed int64) *RepairQueue {
	return &RepairQueue{seed: seed, items: make(map[fragKey]RepairItem)}
}

// Enqueue adds a repair, deduplicating by (file, index). Returns true
// if the item was new.
func (q *RepairQueue) Enqueue(it RepairItem) bool {
	k := fragKey{it.File, it.Index}
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.items[k]; ok {
		return false
	}
	q.items[k] = it
	q.enqueued++
	return true
}

// Drop removes a pending repair (e.g. the file was reclaimed or the
// fragment reappeared).
func (q *RepairQueue) Drop(file id.File, idx int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.items, fragKey{file, idx})
}

// priority orders the queue deterministically: a seeded hash of the
// fragment identity, with the identity itself as tiebreak. Different
// nodes (different seeds) drain in different orders, which spreads
// repair load for a shared loss across the fleet.
func (q *RepairQueue) priority(k fragKey) uint64 {
	h := fnv.New64a()
	var s [8]byte
	for i := 0; i < 8; i++ {
		s[i] = byte(q.seed >> (8 * i))
	}
	h.Write(s[:])
	h.Write(k.file[:])
	h.Write([]byte{byte(k.idx), byte(k.idx >> 8)})
	return h.Sum64()
}

// Drain runs repairs until the queue is empty or the byte budget is
// spent. budget <= 0 means unlimited. The cap is strict: an item whose
// estimated cost exceeds the remaining budget is deferred to the next
// pass, never started — so the bytes a single pass moves can never
// exceed the budget (given honest cost estimates; the actual bytes a
// repair reports are also accumulated and returned). repair returns the
// bytes it actually moved and whether it succeeded; failed items are
// dropped and rediscovered by the next anti-entropy probe.
func (q *RepairQueue) Drain(budget int64, repair func(RepairItem) (int64, bool)) int64 {
	q.mu.Lock()
	keys := make([]fragKey, 0, len(q.items))
	for k := range q.items {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		pi, pj := q.priority(keys[i]), q.priority(keys[j])
		if pi != pj {
			return pi < pj
		}
		if keys[i].file != keys[j].file {
			return string(keys[i].file[:]) < string(keys[j].file[:])
		}
		return keys[i].idx < keys[j].idx
	})
	q.mu.Unlock()

	var spent int64
	for _, k := range keys {
		q.mu.Lock()
		it, ok := q.items[k]
		if !ok {
			q.mu.Unlock()
			continue
		}
		if budget > 0 && spent+it.Cost > budget {
			q.deferred++
			q.mu.Unlock()
			continue
		}
		delete(q.items, k)
		q.mu.Unlock()

		n, ok := repair(it)
		q.mu.Lock()
		if ok {
			q.repaired++
		} else {
			q.failed++
		}
		q.bytes += n
		q.mu.Unlock()
		spent += n
	}
	return spent
}

// ObsCounters reports the queue's lifetime counters plus current depth
// in the obs.CounterSource shape, so a node can fold them into its
// stats snapshot.
func (q *RepairQueue) ObsCounters() map[string]int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return map[string]int64{
		obs.CtrECRepairDepth:    int64(len(q.items)),
		obs.CtrECRepairEnqueued: q.enqueued,
		obs.CtrECRepairDone:     q.repaired,
		obs.CtrECRepairFailed:   q.failed,
		obs.CtrECRepairDeferred: q.deferred,
		obs.CtrECRepairBytes:    q.bytes,
	}
}
