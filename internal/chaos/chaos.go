package chaos

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sync"

	"past/internal/id"
	"past/internal/netsim"
	"past/internal/stats"
)

// Fault kinds, as they appear in counters, events, and metrics.
const (
	FaultDropRequest = "drop-request"
	FaultDropReply   = "drop-reply"
	FaultDup         = "duplicate"
	FaultDelay       = "delay"
	FaultPartition   = "partition"
	FaultFail        = "fail"
	FaultRecover     = "recover"
)

// Event is one injected fault, counted and folded into the run
// fingerprint.
type Event struct {
	Tick     int
	Kind     string
	Src, Dst id.Node
	Msg      string // concrete message type, empty for churn events
}

// String renders the event in the canonical (fingerprinted) form.
func (e Event) String() string {
	return fmt.Sprintf("t=%d %s %s->%s %s", e.Tick, e.Kind, e.Src.Short(), e.Dst.Short(), e.Msg)
}

// Core holds the shared state of one fault-injection run: the schedule,
// the seeded RNG every probabilistic decision draws from, the virtual
// clock, the roster mapping schedule indices to nodeIds, and the fault
// counters and digest. Nodes talk through per-node views created with
// Bind, so the partition rules can be asymmetric and Alive can answer
// from the caller's side of a partition.
//
// Probabilistic decisions are serialized under one mutex; runs driven by
// a single goroutine (like every experiment in this repository) are
// therefore bit-reproducible for a given schedule.
type Core struct {
	sched Schedule

	// OnFault, if set, observes every injected fault by kind — the hook
	// the soak's JSONL event log attaches to. Called without locks.
	OnFault func(kind string)

	mu       sync.Mutex
	rng      *rand.Rand
	roster   []id.Node
	idx      map[id.Node]int
	tick     int
	active   bool
	counters map[string]int64
	nevents  int64
	digest   hash.Hash
}

// NewCore creates the shared state for one run of the given schedule.
// Fault injection starts disabled so the cluster can be built and
// seeded cleanly; call SetActive(true) when the soak begins.
func NewCore(sched Schedule) *Core {
	return &Core{
		sched:    sched,
		rng:      stats.NewRand(sched.Seed),
		idx:      make(map[id.Node]int),
		counters: make(map[string]int64),
		digest:   sha256.New(),
	}
}

// Bind registers self into the roster (in call order, which is how
// schedule rules address nodes) and returns the node's view of the
// network: a netsim.Net that routes every message through the fault
// injector before handing it to inner.
func (c *Core) Bind(self id.Node, inner netsim.Net) *Net {
	c.mu.Lock()
	if _, ok := c.idx[self]; !ok {
		c.idx[self] = len(c.roster)
		c.roster = append(c.roster, self)
	}
	c.mu.Unlock()
	return &Net{core: c, self: self, inner: inner}
}

// NodeAt resolves a roster index to its nodeId.
func (c *Core) NodeAt(i int) (id.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.roster) {
		return id.Node{}, false
	}
	return c.roster[i], true
}

// Len returns the roster size.
func (c *Core) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.roster)
}

// SetActive enables or disables fault injection. Disabled, every view
// is a transparent pass-through.
func (c *Core) SetActive(v bool) {
	c.mu.Lock()
	c.active = v
	c.mu.Unlock()
}

// SetTick advances (or rewinds) the virtual clock the schedule windows
// are evaluated against.
func (c *Core) SetTick(t int) {
	c.mu.Lock()
	c.tick = t
	c.mu.Unlock()
}

// Tick returns the current virtual time.
func (c *Core) Tick() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tick
}

// RecordChurn folds a driver-executed churn action (kind FaultFail or
// FaultRecover) into the event log and fingerprint.
func (c *Core) RecordChurn(kind string, node id.Node) {
	c.mu.Lock()
	c.recordLocked(Event{Tick: c.tick, Kind: kind, Src: node, Dst: node})
	c.mu.Unlock()
	c.notify(kind)
}

// Counters returns a snapshot of per-kind fault counts.
func (c *Core) Counters() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.counters))
	for k, v := range c.counters {
		out[k] = v
	}
	return out
}

// EventCount returns the total number of faults injected.
func (c *Core) EventCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nevents
}

// Fingerprint returns a hex digest covering every fault event (in
// order) plus the final counters — identical schedules and seeds must
// produce identical fingerprints, which is the reproducibility contract
// the tests assert.
func (c *Core) Fingerprint() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := sha256.New()
	sum.Write(c.digest.Sum(nil))
	for _, kv := range SortedCounters(c.counters) {
		sum.Write([]byte(kv))
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// recordLocked counts an event and folds it into the running digest.
// Caller holds c.mu.
func (c *Core) recordLocked(e Event) {
	c.counters[e.Kind]++
	c.nevents++
	c.digest.Write([]byte(e.String()))
	c.digest.Write([]byte{'\n'})
}

func (c *Core) notify(kind string) {
	if c.OnFault != nil {
		c.OnFault(kind)
	}
}

// indexLocked resolves a nodeId to its roster index, -1 if unbound.
func (c *Core) indexLocked(n id.Node) int {
	if i, ok := c.idx[n]; ok {
		return i
	}
	return -1
}

// partitionedLocked reports whether an active partition blocks src->dst.
func (c *Core) partitionedLocked(si, di int) bool {
	for _, p := range c.sched.Partitions {
		if !p.Contains(c.tick) {
			continue
		}
		if matches(p.A, si) && matches(p.B, di) {
			return true
		}
		if p.Symmetric && matches(p.B, si) && matches(p.A, di) {
			return true
		}
	}
	return false
}

// linkFaultsLocked accumulates the active drop/dup probabilities and
// delay for a src->dst message. Probabilities from overlapping rules
// combine as independent events; delays add.
func (c *Core) linkFaultsLocked(si, di int) (drop, dup float64, delayMS int) {
	keep, keepDup := 1.0, 1.0
	for _, r := range c.sched.Links {
		if !r.Contains(c.tick) || !matches(r.From, si) || !matches(r.To, di) {
			continue
		}
		keep *= 1 - r.Drop
		keepDup *= 1 - r.Dup
		delayMS += r.DelayMS
	}
	for _, r := range c.sched.Slow {
		if !r.Contains(c.tick) {
			continue
		}
		if matches(r.Nodes, si) || matches(r.Nodes, di) {
			delayMS += r.DelayMS
		}
	}
	return 1 - keep, 1 - keepDup, delayMS
}

// decision is the precomputed fate of one message.
type decision struct {
	partitioned bool
	dropReq     bool
	dropReply   bool
	duplicate   bool
	delayMS     int
}

// decide draws the message's fate from the seeded RNG.
func (c *Core) decide(src, dst id.Node) (d decision, active bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.active {
		return decision{}, false
	}
	si, di := c.indexLocked(src), c.indexLocked(dst)
	if c.partitionedLocked(si, di) {
		return decision{partitioned: true}, true
	}
	drop, dup, delayMS := c.linkFaultsLocked(si, di)
	d.delayMS = delayMS
	if drop > 0 && c.rng.Float64() < drop {
		if c.rng.Float64() < 0.5 {
			d.dropReq = true
		} else {
			d.dropReply = true
		}
	}
	if dup > 0 && c.rng.Float64() < dup {
		d.duplicate = true
	}
	return d, true
}

// record logs one fault (with the current tick) and fires the hook.
func (c *Core) record(kind string, src, dst id.Node, msg any) {
	c.mu.Lock()
	c.recordLocked(Event{Tick: c.tick, Kind: kind, Src: src, Dst: dst, Msg: fmt.Sprintf("%T", msg)})
	c.mu.Unlock()
	c.notify(kind)
}

// addDelay counts a delayed message without logging per-message events
// (delays are too frequent to log individually).
func (c *Core) addDelay() {
	c.mu.Lock()
	c.counters[FaultDelay]++
	c.mu.Unlock()
	c.notify(FaultDelay)
}

// Net is one node's view of the faulty network. It implements
// netsim.Net, so pastry and past node code runs over it unchanged.
type Net struct {
	core  *Core
	self  id.Node
	inner netsim.Net
}

var _ netsim.Net = (*Net)(nil)

// Inner returns the wrapped network.
func (n *Net) Inner() netsim.Net { return n.inner }

// Invoke applies the schedule to one message, then delivers it through
// the wrapped network. A dropped request or reply surfaces as
// netsim.ErrTimeout (wrapped) — at the sender a lost message IS a
// timeout, and the retry layers must classify it as transient, not as
// proof the peer died. A partitioned link surfaces as netsim.ErrNodeDown:
// from the sender's side of the cut the peer is indistinguishable from a
// dead one. Dropped replies deliver the message and then report the
// failure to the sender.
func (n *Net) Invoke(ctx context.Context, src, dst id.Node, msg any) (any, error) {
	d, active := n.core.decide(src, dst)
	if !active {
		return n.inner.Invoke(ctx, src, dst, msg)
	}
	if d.partitioned {
		n.core.record(FaultPartition, src, dst, msg)
		return nil, fmt.Errorf("chaos: %s -> %s partitioned: %w", src.Short(), dst.Short(), netsim.ErrNodeDown)
	}
	if d.delayMS > 0 {
		n.core.addDelay()
	}
	if d.dropReq {
		n.core.record(FaultDropRequest, src, dst, msg)
		return nil, fmt.Errorf("chaos: %s -> %s request dropped: %w", src.Short(), dst.Short(), netsim.ErrTimeout)
	}
	reply, err := n.inner.Invoke(ctx, src, dst, msg)
	if d.duplicate {
		n.core.record(FaultDup, src, dst, msg)
		// Second delivery; the duplicate's reply (and failure) is
		// discarded, as a retransmission's would be.
		_, _ = n.inner.Invoke(ctx, src, dst, msg)
	}
	if d.dropReply && err == nil {
		n.core.record(FaultDropReply, src, dst, msg)
		return nil, fmt.Errorf("chaos: %s -> %s reply dropped: %w", src.Short(), dst.Short(), netsim.ErrTimeout)
	}
	return reply, err
}

// Alive reports reachability from this node's side of the network: a
// node behind an active partition is indistinguishable from a dead one.
func (n *Net) Alive(dst id.Node) bool {
	c := n.core
	c.mu.Lock()
	blocked := c.active && c.partitionedLocked(c.indexLocked(n.self), c.indexLocked(dst))
	c.mu.Unlock()
	if blocked {
		return false
	}
	return n.inner.Alive(dst)
}

// Proximity passes through; fault injection does not move nodes.
func (n *Net) Proximity(a, b id.Node) (float64, bool) {
	return n.inner.Proximity(a, b)
}
