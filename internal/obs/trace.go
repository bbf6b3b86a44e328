// Package obs is the observability layer: per-request route tracing,
// per-node stats registries, and the export paths (Prometheus-style
// text exposition, JSONL event streams) that make a running PAST node
// inspectable. The paper's entire evaluation is a measurement exercise;
// obs turns the measurements the experiment drivers take offline into
// properties of every live node.
//
// Everything in this package is out-of-band by construction: no code
// path here draws from a protocol RNG, reorders messages, or changes a
// routing decision, so a chaos soak produces bit-for-bit identical
// fingerprints with tracing and registries on or off. Sampling is
// deterministic (every Nth operation, counted — never drawn), and all
// hot-path counters are single atomic adds.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"past/internal/id"
)

// Routing-choice labels, one per rule of the Pastry routing procedure
// (section 2.1) plus the repair/consume outcomes layered on it.
const (
	// ChoiceLeaf: the key was within the leaf-set range and the hop is
	// the numerically closest leaf-set member.
	ChoiceLeaf = "leaf"
	// ChoiceTable: the hop came from the routing table (one more shared
	// prefix digit).
	ChoiceTable = "table"
	// ChoiceRare: the fallback of section 2.1 — any known node at least
	// as close in prefix and numerically closer to the key.
	ChoiceRare = "rare"
	// ChoiceRandom: randomized routing (Config.RandomizeP) picked a
	// random valid candidate instead of the best one.
	ChoiceRandom = "random"
	// ChoiceReroute: the best candidate was already found dead on this
	// route and this hop is the best remaining alternate.
	ChoiceReroute = "reroute"
	// ChoiceLocal: the node consumed the message itself — either the
	// application claimed it (a lookup served en route) or the node is
	// the numerically closest live node it knows of.
	ChoiceLocal = "local"
)

// HopRecord is one routing decision on a traced route: which node
// decided, where the message went, under which rule, and what it cost.
type HopRecord struct {
	// From is the node that made the routing decision.
	From id.Node
	// To is the chosen next hop (equal to From for a ChoiceLocal
	// terminal record).
	To id.Node
	// Choice is the routing rule that produced the hop (Choice*).
	Choice string
	// Prefix is the number of digits From's nodeId shares with the key.
	Prefix int
	// Distance is the proximity metric From->To, or -1 when unknown.
	Distance float64
	// RPCNanos is the wall-clock duration of the forwarding RPC (zero
	// for ChoiceLocal records). Wall time is reported, not replayed: it
	// never feeds back into a protocol decision.
	RPCNanos int64
	// Failed marks a hop attempt that did not complete — the next hop
	// was dead, unreachable, or timed out — after which the route either
	// rerouted (a ChoiceReroute record follows) or gave up.
	Failed bool
}

// String renders one record as "a1b2->c3d4 table p=2".
func (h HopRecord) String() string {
	s := fmt.Sprintf("%s->%s %s p=%d", h.From.Short(), h.To.Short(), h.Choice, h.Prefix)
	if h.Failed {
		s += " FAILED"
	}
	return s
}

// Trace is one sampled client operation's route history.
type Trace struct {
	// Seq is the tracer-assigned sample sequence number.
	Seq int64
	// Op is the client operation ("lookup", "insert", "reclaim").
	Op string
	// Key is the routed destination (the fileId's key).
	Key id.Node
	// Hops is the hop-by-hop record of the operation's final routed
	// attempt, ending in a ChoiceLocal record at the consuming node.
	Hops []HopRecord
	// RouteHops is the hop count the routing layer reported, which must
	// equal the number of successful forwarding records (see HopCount).
	RouteHops int
	// OK reports whether the operation succeeded (file found, insert
	// acknowledged).
	OK bool
	// Err carries the failure, if the operation returned an error.
	Err string
}

// String renders the trace compactly for logs and pretty-printers.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s %s hops=%d ok=%v", t.Seq, t.Op, t.Key.Short(), t.RouteHops, t.OK)
	for _, h := range t.Hops {
		fmt.Fprintf(&b, "\n  %s", h)
	}
	return b.String()
}

// Detailed renders the trace like String, adding each hop's RPC
// wall-clock latency when recorded — what `pastctl trace` prints for a
// cross-process route. The records themselves are the same type the
// netsim tracer collects, so both paths share one renderer.
func (t *Trace) Detailed() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s %s hops=%d ok=%v", t.Seq, t.Op, t.Key.Short(), t.RouteHops, t.OK)
	if t.Err != "" {
		fmt.Fprintf(&b, " err=%q", t.Err)
	}
	for _, h := range t.Hops {
		fmt.Fprintf(&b, "\n  %s", h)
		if h.RPCNanos > 0 {
			fmt.Fprintf(&b, " rpc=%v", time.Duration(h.RPCNanos).Round(time.Microsecond))
		}
	}
	return b.String()
}

// Tracer samples client operations into Traces: every Nth started
// operation is traced, the rest pay a single counter increment. The
// decision is a deterministic count — no RNG — so enabling a Tracer
// cannot perturb a seeded run. A nil *Tracer is valid and samples
// nothing, which is how untraced nodes skip the layer entirely.
type Tracer struct {
	every int64
	keep  int

	// OnTrace, if set, observes every finished trace (the JSONL event
	// stream attaches here). Called without the tracer lock held.
	OnTrace func(*Trace)

	mu      sync.Mutex
	started int64
	seq     int64
	traces  []*Trace // ring of the most recent `keep` traces
	next    int      // ring write position
	wrapped bool
}

// NewTracer creates a tracer sampling every Nth operation and retaining
// the most recent keep traces. every < 1 selects 1 (trace everything);
// keep < 1 selects 64.
func NewTracer(every, keep int) *Tracer {
	if every < 1 {
		every = 1
	}
	if keep < 1 {
		keep = 64
	}
	return &Tracer{every: int64(every), keep: keep}
}

// ShouldSample counts one started operation and reports whether it is
// the every-Nth one to be traced. Safe for concurrent use; nil-safe.
func (t *Tracer) ShouldSample() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.started++
	return (t.started-1)%t.every == 0
}

// Add retains a finished trace, assigning its sequence number.
// Nil-safe; a nil trace is ignored.
func (t *Tracer) Add(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	tr.Seq = t.seq
	if len(t.traces) < t.keep {
		t.traces = append(t.traces, tr)
	} else {
		t.traces[t.next] = tr
		t.wrapped = true
	}
	t.next = (t.next + 1) % t.keep
	cb := t.OnTrace
	t.mu.Unlock()
	if cb != nil {
		cb(tr)
	}
}

// Traces returns the retained traces, oldest first.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		return append([]*Trace(nil), t.traces...)
	}
	out := make([]*Trace, 0, len(t.traces))
	out = append(out, t.traces[t.next:]...)
	out = append(out, t.traces[:t.next]...)
	return out
}

// Started returns how many operations this tracer has counted.
func (t *Tracer) Started() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.started
}

// Sampled returns how many traces were retained (total, including ones
// that have since rotated out of the ring).
func (t *Tracer) Sampled() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}
