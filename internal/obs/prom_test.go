package obs

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePromGolden pins the exposition byte for byte: family TYPE
// lines exactly once each, series in sorted-name order, the histogram
// rendered cumulatively with _bucket/_sum/_count, and multi-snapshot
// expositions (per-node plus fleet) interleaving series under the one
// TYPE line. A Prometheus scraper parses this text; format drift is a
// breaking change, hence the golden.
func TestWritePromGolden(t *testing.T) {
	mk := func(lookups, stored int64, lat []int64) Snapshot {
		s := Snapshot{Counters: map[string]int64{
			CtrLookups:        lookups,
			CtrReplicasStored: stored,
			CtrStoreBytes:     4096,
			CtrRPCTimeNanos:   1_500_000,
		}}
		s.RPCLat = lat
		return s
	}
	lat := make([]int64, LatencyBucketCount)
	lat[10] = 2 // two RPCs in [512us, 1.024ms)
	lat[LatencyBucketCount-1] = 1

	var single bytes.Buffer
	if err := WriteProm(&single, mk(3, 1, lat), map[string]string{"node": "ab12cd34"}); err != nil {
		t.Fatal(err)
	}
	wantSingle := strings.Join([]string{
		`# TYPE past_lookups_total counter`,
		`past_lookups_total{node="ab12cd34"} 3`,
		`# TYPE past_replicas_stored_total counter`,
		`past_replicas_stored_total{node="ab12cd34"} 1`,
		`# TYPE past_rpc_time_nanos_total counter`,
		`past_rpc_time_nanos_total{node="ab12cd34"} 1500000`,
		`# TYPE past_store_bytes gauge`,
		`past_store_bytes{node="ab12cd34"} 4096`,
		``,
	}, "\n")
	got := single.String()
	histAt := strings.Index(got, "# TYPE past_rpc_latency_seconds histogram\n")
	if histAt < 0 {
		t.Fatalf("no histogram TYPE line in:\n%s", got)
	}
	if got[:histAt] != wantSingle {
		t.Errorf("counter section:\n%s\nwant:\n%s", got[:histAt], wantSingle)
	}
	hist := got[histAt:]
	// The le label is appended last within the bucket's label set, per
	// Prometheus convention.
	for _, want := range []string{
		"past_rpc_latency_seconds_bucket{node=\"ab12cd34\",le=\"1e-06\"} 0\n",
		"past_rpc_latency_seconds_bucket{node=\"ab12cd34\",le=\"0.001024\"} 2\n",
		"past_rpc_latency_seconds_bucket{node=\"ab12cd34\",le=\"+Inf\"} 3\n",
		"past_rpc_latency_seconds_sum{node=\"ab12cd34\"} 0.0015\n",
		"past_rpc_latency_seconds_count{node=\"ab12cd34\"} 3\n",
	} {
		if !strings.Contains(hist, want) {
			t.Errorf("histogram missing %q in:\n%s", want, hist)
		}
	}

	// Multi-snapshot: the TYPE line appears once, then both series.
	var multi bytes.Buffer
	err := WritePromAll(&multi, []Labeled{
		{Labels: map[string]string{"node": "aa"}, Snap: mk(1, 0, nil)},
		{Labels: map[string]string{"node": "fleet"}, Snap: mk(9, 2, nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := multi.String()
	if c := strings.Count(m, "# TYPE past_lookups_total counter"); c != 1 {
		t.Errorf("TYPE line appears %d times, want 1:\n%s", c, m)
	}
	wantOrder := []string{
		`past_lookups_total{node="aa"} 1`,
		`past_lookups_total{node="fleet"} 9`,
	}
	last := -1
	for _, w := range wantOrder {
		i := strings.Index(m, w)
		if i < 0 || i < last {
			t.Errorf("series %q missing or out of order:\n%s", w, m)
		}
		last = i
	}
}

// TestPromLabelEscaping: only backslash, double quote, and newline are
// escaped — exactly the exposition-format spec. Go's %q would also
// escape non-ASCII and control bytes, which a Prometheus parser then
// reads back differently than the raw value.
func TestPromLabelEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `plain`},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{`all\of"them` + "\n", `all\\of\"them\n`},
		{"naïve-ütf8", "naïve-ütf8"}, // multi-byte survives unescaped
	}
	for _, c := range cases {
		snap := Snapshot{Counters: map[string]int64{"x": 1}}
		var b bytes.Buffer
		if err := WriteProm(&b, snap, map[string]string{"v": c.in}); err != nil {
			t.Fatal(err)
		}
		want := `past_x{v="` + c.want + `"} 1` + "\n"
		if !strings.Contains(b.String(), want) {
			t.Errorf("label %q rendered %q, want contains %q", c.in, b.String(), want)
		}
	}
}

// TestWritePromRegistrySnapshot renders a real registry snapshot (every
// counter family the node exports, not the golden's hand-picked four)
// and checks what a scraper relies on: each family typed exactly once
// and carrying its value, the histogram buckets cumulative, complete,
// ending in +Inf, and _count equal to that last bucket.
func TestWritePromRegistrySnapshot(t *testing.T) {
	var st NodeStats
	st.Lookups.Add(7)
	st.MsgsIn.Add(100)
	st.ObserveRPC(300 * time.Microsecond)
	st.ObserveRPC(300 * time.Microsecond)
	st.ObserveRPC(90 * time.Millisecond)
	snap := st.Snapshot()
	snap.Set(CtrStoreBytes, 12345)

	var b bytes.Buffer
	if err := WriteProm(&b, snap, map[string]string{"node": "n"}); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, name := range snap.Names() {
		if c := strings.Count(text, "# TYPE past_"+name+" "); c != 1 {
			t.Errorf("%s typed %d times, want 1", name, c)
		}
		if want := fmt.Sprintf("past_%s{node=\"n\"} %d\n", name, snap.Get(name)); !strings.Contains(text, want) {
			t.Errorf("missing series %q", want)
		}
	}
	var buckets []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "past_rpc_latency_seconds_bucket{") {
			buckets = append(buckets, line)
		}
	}
	if len(buckets) != LatencyBucketCount {
		t.Fatalf("%d bucket lines, want %d", len(buckets), LatencyBucketCount)
	}
	var prev int64
	for _, line := range buckets {
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil || v < prev {
			t.Fatalf("bucket %q after %d: not cumulative (%v)", line, prev, err)
		}
		prev = v
	}
	if last := buckets[len(buckets)-1]; !strings.Contains(last, `le="+Inf"`) || prev != snap.TotalRPCs() {
		t.Errorf("last bucket %q, want le=\"+Inf\" holding all %d RPCs", last, snap.TotalRPCs())
	}
	if want := fmt.Sprintf("past_rpc_latency_seconds_count{node=\"n\"} %d\n", prev); !strings.Contains(text, want) {
		t.Errorf("missing %q", want)
	}
}

// TestSnapshotConcurrent hammers one registry from writer goroutines
// while readers snapshot, delta, aggregate, and render it. Run under
// -race this pins the concurrency contract: observation never requires
// a lock and never tears.
func TestSnapshotConcurrent(t *testing.T) {
	var st NodeStats
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				st.Lookups.Add(1)
				st.MsgsIn.Add(2)
				st.ObserveRPC(time.Duration(seed+int64(i%1000)) * time.Microsecond)
			}
		}(int64(w + 1))
	}
	prev := st.Snapshot()
	for i := 0; i < 200; i++ {
		cur := st.Snapshot()
		d := cur.Delta(prev)
		if d.Get(CtrLookups) < 0 || d.Get(CtrMsgsIn) < 0 {
			t.Fatalf("negative delta from a monotonic counter: %v", d.Counters)
		}
		agg := Aggregate(prev, d)
		var b bytes.Buffer
		if err := WriteProm(&b, agg, map[string]string{"node": "t"}); err != nil {
			t.Fatal(err)
		}
		prev = cur
	}
	close(stop)
	wg.Wait()
	final := st.Snapshot()
	if final.Get(CtrLookups) == 0 || final.TotalRPCs() == 0 {
		t.Fatal("writers made no progress")
	}
}
