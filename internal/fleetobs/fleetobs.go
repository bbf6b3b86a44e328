// Package fleetobs is the fleet-wide observability plane: it collects
// per-node obs.Snapshot registries from every member of a live cluster
// (over the batch ClientObsReport RPC), merges them into fleet-level
// series with obs.Aggregate, tracks restart-aware counter deltas so
// rates stay correct across crash/rejoin cycles, and evaluates
// declarative SLOs as windowed burn rates over the aggregated stream.
// The past-cluster top live dashboard, the aggregator's combined
// /metrics endpoint, and the cluster scenario driver's per-round SLO
// reporting all sit on top of this package.
package fleetobs

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"past/internal/id"
	"past/internal/obs"
	"past/internal/past"
)

// Target names one fleet member to scrape.
type Target struct {
	// Name is the display name ("node03"); it becomes the series' node
	// label on the combined /metrics endpoint.
	Name string
	// Addr is the node's client RPC address — the collection path (one
	// ClientObsReport round trip).
	Addr string
}

// RPC abstracts the client transport the scraper invokes nodes through;
// *transport.TCP satisfies it.
type RPC interface {
	InvokeAddr(addr string, msg any) (any, error)
}

// Tracker turns a stream of cumulative per-node snapshots into
// per-interval deltas, detecting process restarts: a node that crashed
// and rejoined reports a registry reset to zero, so a naive delta would
// go negative and poison every fleet rate. A reference counter running
// backwards marks the restart, and the node's whole current snapshot
// becomes that interval's delta (everything it counted, it counted
// since the restart).
type Tracker struct {
	prev map[string]obs.Snapshot
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{prev: make(map[string]obs.Snapshot)} }

// Delta returns the interval delta for the node identified by key given
// its current cumulative snapshot, and whether a restart was detected.
// The first sighting of a key returns the snapshot itself (all of it is
// new to the tracker).
func (t *Tracker) Delta(key string, cur obs.Snapshot) (obs.Snapshot, bool) {
	prev, seen := t.prev[key]
	t.prev[key] = cur
	if !seen {
		return cur, false
	}
	if restarted(prev, cur) {
		return cur, true
	}
	return cur.Delta(prev), false
}

// restarted reports whether cur must come from a fresh process life.
// Every "_total" counter is monotonic within one life, so any one of
// them running backwards proves a restart — checking them all matters
// because a busy rejoin can push the fresh life's message counters past
// the old life's before the next poll, while a quieter counter (WAL
// appends, cumulative RPC time) still betrays the reset.
func restarted(prev, cur obs.Snapshot) bool {
	for k, v := range prev.Counters {
		if strings.HasSuffix(k, "_total") && cur.Get(k) < v {
			return true
		}
	}
	for i, v := range prev.RPCLat {
		if i < len(cur.RPCLat) && cur.RPCLat[i] < v {
			return true
		}
	}
	return false
}

// NodeSample is one target's state in one poll.
type NodeSample struct {
	Target Target
	// Node is the responder's overlay identity (zero when the scrape
	// failed).
	Node id.Node
	// Snap is the node's current cumulative snapshot.
	Snap obs.Snapshot
	// Window is the delta since the scraper last saw this node.
	Window obs.Snapshot
	// Restarted reports that the node's registry reset since last poll.
	Restarted bool
	// Err is the scrape failure, if any.
	Err string
}

// Live reports whether the scrape succeeded.
func (ns *NodeSample) Live() bool { return ns.Err == "" }

// Sample is one poll of the whole fleet.
type Sample struct {
	Seq  int
	When time.Time
	// Nodes holds one entry per target, in target order.
	Nodes []NodeSample
	// Live is the number of targets that answered.
	Live int
	// Fleet sums the current snapshots of the live nodes — gauges
	// (store bytes, cache entries, leaf-set sizes) are meaningful here,
	// cumulative counters are not (a restarted node's count vanishes).
	Fleet obs.Snapshot
	// Window sums the live nodes' deltas since the previous poll —
	// the fleet's activity over the interval; rates divide by elapsed.
	Window obs.Snapshot
	// Totals carries the scraper's monotonic fleet counters: window
	// deltas of "_total" counters and latency buckets accumulated since
	// the scraper started, immune to restarts and scrape gaps.
	Totals obs.Snapshot
}

// Merged is the fleet-as-one-system view: gauges summed from the
// current snapshots, counters and the latency histogram from the
// monotonic totals. This is the snapshot the aggregator serves under
// the node="fleet" label.
func (s *Sample) Merged() obs.Snapshot {
	out := obs.Snapshot{
		Counters: make(map[string]int64, len(s.Totals.Counters)+8),
		RPCLat:   append([]int64(nil), s.Totals.RPCLat...),
	}
	for k, v := range s.Fleet.Counters {
		if !strings.HasSuffix(k, "_total") {
			out.Counters[k] = v
		}
	}
	for k, v := range s.Totals.Counters {
		out.Counters[k] = v
	}
	return out
}

// Scraper polls a fixed target set and maintains the fleet aggregates.
// Poll is synchronous and serialized; the aggregator's HTTP endpoints
// trigger one poll per request (scrape-on-request, no background loop).
type Scraper struct {
	rpc RPC

	mu      sync.Mutex
	targets []Target
	tracker *Tracker
	totals  obs.Snapshot
	seq     int
	last    *Sample
}

// NewScraper builds a scraper over the given transport and targets.
func NewScraper(rpc RPC, targets []Target) *Scraper {
	return &Scraper{
		rpc:     rpc,
		targets: append([]Target(nil), targets...),
		tracker: NewTracker(),
		totals:  obs.Snapshot{Counters: make(map[string]int64), RPCLat: make([]int64, obs.LatencyBucketCount)},
	}
}

// Targets returns the scrape set.
func (s *Scraper) Targets() []Target {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Target(nil), s.targets...)
}

// Last returns the most recent sample (nil before the first Poll).
func (s *Scraper) Last() *Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Poll scrapes every target once and returns the fleet sample. A target
// whose RPC fails is recorded with the error and excluded from the
// aggregates; the poll itself never fails.
func (s *Scraper) Poll() *Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	sample := &Sample{Seq: s.seq, When: time.Now(), Nodes: make([]NodeSample, len(s.targets))}
	var current, windows []obs.Snapshot
	for i, t := range s.targets {
		ns := &sample.Nodes[i]
		ns.Target = t
		s.scrape(ns)
		if !ns.Live() {
			continue
		}
		ns.Window, ns.Restarted = s.tracker.Delta(t.Name, ns.Snap)
		sample.Live++
		current = append(current, ns.Snap)
		windows = append(windows, ns.Window)
		s.accumulate(ns.Window)
	}
	sample.Fleet = obs.Aggregate(current...)
	sample.Window = obs.Aggregate(windows...)
	sample.Totals = cloneSnapshot(s.totals)
	s.last = sample
	return sample
}

// scrape fills one node's sample from one ClientObsReport round trip.
func (s *Scraper) scrape(ns *NodeSample) {
	reply, err := s.rpc.InvokeAddr(ns.Target.Addr, &past.ClientObsReport{})
	if err != nil {
		ns.Err = err.Error()
		return
	}
	rep, ok := reply.(*past.ClientObsReportReply)
	if !ok {
		ns.Err = fmt.Sprintf("unexpected reply %T", reply)
		return
	}
	ns.Node, ns.Snap = rep.Node, rep.Snapshot
}

// accumulate folds one node's window delta into the monotonic fleet
// totals. Only "_total" counters and latency buckets accumulate —
// gauges have no meaningful sum over time — and negative deltas are
// dropped (they can only come from scrape anomalies; totals must never
// run backwards).
func (s *Scraper) accumulate(w obs.Snapshot) {
	for k, v := range w.Counters {
		if v > 0 && strings.HasSuffix(k, "_total") {
			s.totals.Counters[k] += v
		}
	}
	for i, v := range w.RPCLat {
		if v > 0 && i < len(s.totals.RPCLat) {
			s.totals.RPCLat[i] += v
		}
	}
}

func cloneSnapshot(s obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{
		Counters: make(map[string]int64, len(s.Counters)),
		RPCLat:   append([]int64(nil), s.RPCLat...),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	return out
}
