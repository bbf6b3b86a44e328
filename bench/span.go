package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"past/internal/id"
	"past/internal/netsim"
	"past/internal/store"
)

// layer is what a span belongs to. The client span is the op as the
// client saw it; the others are the public seams the program already has.
type layer uint8

const (
	layerClient    layer = iota // the benchmark's call into the system
	layerTransport              // netsim.Net seam over *transport.TCP
	layerNetsim                 // netsim.Net seam over *netsim.Network
	layerHandler                // netsim.Endpoint seam: past.Node.Deliver
	layerStore                  // store.Backend seam
	numLayers
)

var layerNames = [numLayers]string{"client", "transport", "netsim", "handler", "store"}

func (l layer) String() string { return layerNames[l] }

// span is one recorded call. Times are nanoseconds since the recorder
// was made. Parent is an index into the recorder's spans, -1 for a
// client span; it is filled in by link, from time containment. A span
// holds no pointer, so a million of them cost the collector nothing.
type span struct {
	Layer  layer
	Start  int64
	End    int64
	Parent int
	Op     int64
}

func (s span) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name   string `json:"name"`
		Start  int64  `json:"start"`
		End    int64  `json:"end"`
		Parent int    `json:"parent"`
		Op     int64  `json:"op"`
	}{s.Layer.String(), s.Start, s.End, s.Parent, s.Op})
}

// recorder keeps spans in memory. Recording is switched on and off
// between blocks of ops, so that one traced run yields both the traced
// and the untraced rate of the same workload on the same fleet. The
// traced run has one client, so at any time one op is in flight and
// every span recorded belongs to it.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	op    atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

// begin returns the start time of a span, or -1 when recording is off
// or there is no recorder.
func (r *recorder) begin() int64 {
	if r == nil || !r.on.Load() {
		return -1
	}
	return int64(time.Since(r.epoch))
}

func (r *recorder) end(l layer, start int64) {
	if start < 0 {
		return
	}
	end := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{Layer: l, Start: start, End: end, Parent: -1, Op: r.op.Load()})
	r.mu.Unlock()
}

// timeCall runs one client call into the system, as a client span when
// recording is on, and returns how long the call took.
func (r *recorder) timeCall(call func()) time.Duration {
	s := r.begin()
	t0 := time.Now()
	call()
	d := time.Since(t0)
	r.end(layerClient, s)
	return d
}

// seams wraps the three public seams with span recording. The zero
// value wraps nothing, which is what every untraced run uses.
type seams struct{ rec *recorder }

func (s seams) net(l layer, inner netsim.Net) netsim.Net {
	if s.rec == nil {
		return inner
	}
	return &tracedNet{Net: inner, rec: s.rec, layer: l}
}

func (s seams) endpoint(ep netsim.Endpoint) netsim.Endpoint {
	if s.rec == nil {
		return ep
	}
	return &tracedEndpoint{ep: ep, rec: s.rec}
}

func (s seams) backend(b store.Backend) store.Backend {
	if s.rec == nil {
		return b
	}
	return &tracedBackend{Backend: b, rec: s.rec}
}

type tracedNet struct {
	netsim.Net
	rec   *recorder
	layer layer
}

func (t *tracedNet) Invoke(ctx context.Context, src, dst id.Node, msg any) (any, error) {
	s := t.rec.begin()
	reply, err := t.Net.Invoke(ctx, src, dst, msg)
	t.rec.end(t.layer, s)
	return reply, err
}

type tracedEndpoint struct {
	ep  netsim.Endpoint
	rec *recorder
}

func (t *tracedEndpoint) Deliver(from id.Node, msg any) (any, error) {
	s := t.rec.begin()
	reply, err := t.ep.Deliver(from, msg)
	t.rec.end(layerHandler, s)
	return reply, err
}

// tracedBackend records the calls a node makes on its store while
// serving ops. The accounting getters (Capacity, Used, Free, Len,
// Utilization) are field reads and pass through unrecorded.
type tracedBackend struct {
	store.Backend
	rec *recorder
}

func (t *tracedBackend) CanAccept(size int64, th float64) bool {
	s := t.rec.begin()
	ok := t.Backend.CanAccept(size, th)
	t.rec.end(layerStore, s)
	return ok
}

func (t *tracedBackend) Add(e store.Entry) error {
	s := t.rec.begin()
	err := t.Backend.Add(e)
	t.rec.end(layerStore, s)
	return err
}

func (t *tracedBackend) Get(f id.File) (store.Entry, bool) {
	s := t.rec.begin()
	e, ok := t.Backend.Get(f)
	t.rec.end(layerStore, s)
	return e, ok
}

func (t *tracedBackend) Remove(f id.File) (store.Entry, bool) {
	s := t.rec.begin()
	e, ok := t.Backend.Remove(f)
	t.rec.end(layerStore, s)
	return e, ok
}

func (t *tracedBackend) SetPointer(p store.Pointer) {
	s := t.rec.begin()
	t.Backend.SetPointer(p)
	t.rec.end(layerStore, s)
}

func (t *tracedBackend) GetPointer(f id.File) (store.Pointer, bool) {
	s := t.rec.begin()
	p, ok := t.Backend.GetPointer(f)
	t.rec.end(layerStore, s)
	return p, ok
}

// layerTotals is what the spans of a set of ops add up to.
type layerTotals struct {
	ops   int
	self  [numLayers]int64 // nanoseconds attributed to each layer
	calls [numLayers]int64 // spans recorded of each layer
}

// selfTimes attributes every instant of every op to one span: the one
// that started last among those open at that instant. For a span whose
// children run one after another this is its duration minus theirs; when
// children overlap (parallel replica stores, hedged fragment fetches)
// the overlap is counted once, so the layers of an op always add up to
// the client span exactly. Spans are grouped by op id; spans of an op
// that lie outside its client span are clipped to it.
func selfTimes(spans []span) layerTotals {
	var t layerTotals
	byOp := map[int64][]span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	for _, group := range byOp {
		root := -1
		for i, s := range group {
			if s.Layer == layerClient {
				root = i
			}
		}
		if root < 0 {
			continue
		}
		t.ops++
		lo, hi := group[root].Start, group[root].End
		cuts := make([]int64, 0, 2*len(group))
		for i := range group {
			s := &group[i]
			s.Start, s.End = max(s.Start, lo), min(s.End, hi)
			if s.End < s.Start {
				s.End = s.Start
			}
			cuts = append(cuts, s.Start, s.End)
			t.calls[s.Layer]++
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		for i := 0; i+1 < len(cuts); i++ {
			a, b := cuts[i], cuts[i+1]
			if a == b {
				continue
			}
			best := -1
			for j, s := range group {
				if s.Start <= a && b <= s.End && (best < 0 || s.Start >= group[best].Start) {
					best = j
				}
			}
			if best >= 0 {
				t.self[group[best].Layer] += b - a
			}
		}
	}
	return t
}

// link fills in each span's parent: the span of the same op that started
// last among those containing it in time.
func link(spans []span) {
	byOp := map[int64][]int{}
	for i, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], i)
	}
	for _, idx := range byOp {
		for _, i := range idx {
			s := spans[i]
			best := -1
			for _, j := range idx {
				p := spans[j]
				if j == i || p.Start > s.Start || p.End < s.End || (p.Start == s.Start && p.End == s.End && j > i) {
					continue
				}
				if best < 0 || p.Start > spans[best].Start {
					best = j
				}
			}
			spans[i].Parent = best
		}
	}
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
