package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"past/internal/id"
)

func testNode(b byte) id.Node {
	var n id.Node
	for i := range n {
		n[i] = b
	}
	return n
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(3, 8)
	want := []bool{true, false, false, true, false, false, true}
	for i, w := range want {
		if got := tr.ShouldSample(); got != w {
			t.Fatalf("ShouldSample call %d = %v, want %v", i+1, got, w)
		}
	}
	if tr.Started() != int64(len(want)) {
		t.Fatalf("Started = %d, want %d", tr.Started(), len(want))
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.ShouldSample() {
		t.Fatal("nil tracer must never sample")
	}
	tr.Add(&Trace{Op: "lookup"}) // must not panic
	if got := tr.Traces(); got != nil {
		t.Fatalf("nil tracer Traces = %v, want nil", got)
	}
	if tr.Started() != 0 || tr.Sampled() != 0 {
		t.Fatal("nil tracer counts must be zero")
	}
}

func TestTracerRingAndCallback(t *testing.T) {
	tr := NewTracer(1, 3)
	var fired []int64
	tr.OnTrace = func(x *Trace) { fired = append(fired, x.Seq) }
	for i := 0; i < 5; i++ {
		tr.Add(&Trace{Op: "lookup"})
	}
	if tr.Sampled() != 5 {
		t.Fatalf("Sampled = %d, want 5", tr.Sampled())
	}
	got := tr.Traces()
	if len(got) != 3 {
		t.Fatalf("ring retained %d traces, want 3", len(got))
	}
	for i, want := range []int64{3, 4, 5} {
		if got[i].Seq != want {
			t.Fatalf("ring[%d].Seq = %d, want %d (oldest first)", i, got[i].Seq, want)
		}
	}
	if len(fired) != 5 || fired[0] != 1 || fired[4] != 5 {
		t.Fatalf("OnTrace fired with seqs %v, want 1..5", fired)
	}
}

func TestTraceString(t *testing.T) {
	a, b := testNode(1), testNode(2)
	tr := &Trace{Op: "lookup", RouteHops: 1, OK: true, Hops: []HopRecord{{From: a, To: b, Choice: ChoiceTable}}}
	if s := tr.String(); !strings.Contains(s, "lookup") || !strings.Contains(s, "hops=1") {
		t.Fatalf("String() = %q, want op name and hop count included", s)
	}
}

func TestSnapshotDelta(t *testing.T) {
	var s NodeStats
	s.MsgsOut.Add(5)
	s.Lookups.Add(2)
	s.ObserveRPC(3 * time.Microsecond)
	before := s.Snapshot()

	s.MsgsOut.Add(7)
	s.ObserveRPC(3 * time.Microsecond)
	s.ObserveRPC(time.Second)
	after := s.Snapshot()

	d := after.Delta(before)
	if got := d.Get(CtrMsgsOut); got != 7 {
		t.Fatalf("delta msgs_out = %d, want 7", got)
	}
	if got := d.Get(CtrLookups); got != 0 {
		t.Fatalf("delta lookups = %d, want 0", got)
	}
	if got := d.TotalRPCs(); got != 2 {
		t.Fatalf("delta rpc count = %d, want 2", got)
	}
	if got := after.TotalRPCs(); got != 3 {
		t.Fatalf("total rpc count = %d, want 3", got)
	}
}

func TestSnapshotSetAndNames(t *testing.T) {
	var s Snapshot
	s.Set(CtrStoreBytes, 42)
	s.Set(CtrCacheBytes, 7)
	if got := s.Get(CtrStoreBytes); got != 42 {
		t.Fatalf("Get = %d, want 42", got)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != CtrCacheBytes || names[1] != CtrStoreBytes {
		t.Fatalf("Names = %v, want sorted [%s %s]", names, CtrCacheBytes, CtrStoreBytes)
	}
}

func TestAggregate(t *testing.T) {
	var a, b NodeStats
	a.MsgsIn.Add(3)
	b.MsgsIn.Add(4)
	a.ObserveRPC(time.Microsecond)
	b.ObserveRPC(time.Microsecond)
	agg := Aggregate(a.Snapshot(), b.Snapshot())
	if got := agg.Get(CtrMsgsIn); got != 7 {
		t.Fatalf("aggregate msgs_in = %d, want 7", got)
	}
	if got := agg.TotalRPCs(); got != 2 {
		t.Fatalf("aggregate rpc count = %d, want 2", got)
	}
}

func TestLatencyBucketBound(t *testing.T) {
	if got := LatencyBucketBound(0); got != time.Microsecond {
		t.Fatalf("bucket 0 bound = %v, want 1us", got)
	}
	if got := LatencyBucketBound(LatencyBucketCount - 1); got >= 0 {
		t.Fatalf("last bucket bound = %v, want negative (+Inf)", got)
	}
}

func TestWritePromFormat(t *testing.T) {
	var s NodeStats
	s.Lookups.Add(9)
	s.ObserveRPC(2 * time.Microsecond)
	snap := s.Snapshot()
	snap.Set(CtrStoreBytes, 1024)

	var buf bytes.Buffer
	if err := WriteProm(&buf, snap, map[string]string{"node": "ab12"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE past_lookups_total counter",
		`past_lookups_total{node="ab12"} 9`,
		"# TYPE past_store_bytes gauge",
		`past_store_bytes{node="ab12"} 1024`,
		"# TYPE past_rpc_latency_seconds histogram",
		`past_rpc_latency_seconds_bucket{node="ab12",le="+Inf"} 1`,
		`past_rpc_latency_seconds_count{node="ab12"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Deterministic: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteProm(&buf2, snap, map[string]string{"node": "ab12"}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("prom output must be deterministic across renders")
	}
}

func TestEventLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	in := []Event{
		{Kind: "phase", Detail: "seed", N: 40},
		{Kind: "fault", Tick: 3, Op: "drop"},
		{Kind: "trace", Tick: 4, Op: "lookup", Hops: 2, OK: true},
		{Kind: "summary", Tick: 20, N: 123, OK: true},
	}
	for _, e := range in {
		l.Emit(e)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Count() != int64(len(in)) {
		t.Fatalf("Count = %d, want %d", l.Count(), len(in))
	}

	out, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if !reflect.DeepEqual(out[i], in[i]) {
			t.Fatalf("event %d = %+v, want %+v", i, out[i], in[i])
		}
	}
	byKind := CountByKind(out)
	if byKind["fault"] != 1 || byKind["trace"] != 1 {
		t.Fatalf("CountByKind = %v", byKind)
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Emit(Event{Kind: "fault"}) // must not panic
	if l.Count() != 0 {
		t.Fatal("nil log count must be 0")
	}
	if err := l.Close(); err != nil {
		t.Fatal("nil log close must be nil")
	}
}

func TestReadEventsMalformed(t *testing.T) {
	in := "{\"kind\":\"fault\"}\nnot json\n"
	if _, err := ReadEvents(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("malformed line must fail with its line number, got %v", err)
	}
	in = "{\"tick\":3}\n"
	if _, err := ReadEvents(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "missing kind") {
		t.Fatalf("kindless event must fail, got %v", err)
	}
}

// TestConcurrentRegistryAndTracer hammers the registry and tracer from
// many goroutines; run under -race it proves the counters and the
// sampler are safe on a live node's hot paths.
func TestConcurrentRegistryAndTracer(t *testing.T) {
	var s NodeStats
	tr := NewTracer(2, 16)
	tr.OnTrace = func(*Trace) {}
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.MsgsOut.Add(1)
				s.RPCErrors.Add(1)
				s.ObserveRPC(time.Duration(i) * time.Microsecond)
				if tr.ShouldSample() {
					tr.Add(&Trace{Op: "lookup", OK: true})
				}
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if got := snap.Get(CtrMsgsOut); got != workers*per {
		t.Fatalf("msgs_out = %d, want %d", got, workers*per)
	}
	if got := snap.TotalRPCs(); got != workers*per {
		t.Fatalf("rpc count = %d, want %d", got, workers*per)
	}
	if got := tr.Started(); got != workers*per {
		t.Fatalf("tracer started = %d, want %d", got, workers*per)
	}
	if got := tr.Sampled(); got != workers*per/2 {
		t.Fatalf("tracer sampled = %d, want %d", got, workers*per/2)
	}
}
