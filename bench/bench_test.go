package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"past/internal/cache"
	"past/internal/experiments"
)

func TestOpStreamsRepeatWithTheSeed(t *testing.T) {
	draw := func(seed int64, c int, gen func(*rand.Rand, int) op) []op {
		next := clientStream(seed, c, gen)
		var ops []op
		for inserted := 0; len(ops) < 500; {
			o := next(inserted)
			if o.kind == opInsert {
				inserted++
			}
			ops = append(ops, o)
		}
		return ops
	}
	for name, gen := range map[string]func(*rand.Rand, int) op{
		"tcp-read":  readGen(32, 4000),
		"tcp-write": mixedGen(16, []int{1 << 10, 2 << 10, 4 << 10}),
	} {
		a, b := draw(7, 0, gen), draw(7, 0, gen)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed and client gave two different op streams", name)
		}
		if reflect.DeepEqual(a, draw(8, 0, gen)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", name)
		}
		if reflect.DeepEqual(a, draw(7, 1, gen)) {
			t.Errorf("%s: clients 0 and 1 gave the same op stream", name)
		}
	}
	if string(content(3, 5, 64)) != string(content(3, 5, 64)) || string(content(3, 5, 64)) == string(content(3, 6, 64)) {
		t.Error("file content must depend on the seed and the file's number, and on nothing else")
	}
}

func TestPercentileAndSegmentMedian(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	// Nearest rank: the p-th percentile of 1..100 is p.
	var hundred []int
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, i)
	}
	for _, p := range []float64{1, 50, 99, 99.9} {
		got, ok := percentile(ms(hundred...), p)
		want := time.Duration(min(int(p+0.999), 100)) * time.Millisecond
		if !ok || got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of nothing must report no value")
	}

	// Five segments, one of them an outlier: the median ignores it, and a
	// segment without the op type is left out rather than counted as 0.
	var segs []segment
	for _, p50 := range []int{10, 11, 12, 13, 500} {
		var s segment
		s.lat[opLookup] = ms(p50-1, p50, p50+1)
		segs = append(segs, s)
	}
	segs = append(segs, segment{})
	got, ok := segmentMedian(segs, latPercentile(opLookup, 50))
	if !ok || got != 12000 {
		t.Errorf("segment median of p50 = %v us, want 12000", got)
	}
	if _, ok := segmentMedian(segs, latPercentile(opInsert, 50)); ok {
		t.Error("no segment has inserts: the median must report no value")
	}
	if m, _ := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestTallyCountsEveryKindOfFailure(t *testing.T) {
	var ty tally
	ty.add([]sample{
		{out: outcome{kind: opLookup, hasHops: true, hops: 2, fromCache: true}},
		{out: outcome{kind: opLookup, hasHops: true, hops: 4}},
		{out: outcome{kind: opLookup, failed: true}},
		{out: outcome{kind: opInsert, rejected: true, hasHops: true, hops: 9}},
		{out: outcome{kind: opLookup, skipped: true}},
	})
	if ty.attempted != 4 || ty.failed != 1 || ty.rejected != 1 || ty.skipped != 1 {
		t.Errorf("tally = %+v", ty)
	}
	if ty.hopsMean() != 3 || ty.hitPct() != 50 {
		t.Errorf("hops %v hit%% %v, want 3 and 50: failed and insert ops must not enter them", ty.hopsMean(), ty.hitPct())
	}
}

// TestWrongRepliesAreFailures injects the two replies a client must
// never accept: not-found for a file it believes acknowledged, and
// bytes that do not hash to what was inserted.
func TestWrongRepliesAreFailures(t *testing.T) {
	inst, err := setupTCPRead(1, seams{}, 1, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	tcp := inst.(*tcpInstance)
	defer tcp.close()
	good := tcp.shared[0]
	if out := tcp.lookup(0, good); out.failed {
		t.Fatal("a lookup of a preloaded file failed")
	}
	missing := good
	missing.id[0] ^= 0xFF
	if out := tcp.lookup(1, missing); !out.failed {
		t.Error("not-found was not counted as a failure")
	}
	wrong := good
	wrong.sum[0] ^= 0xFF
	if out := tcp.lookup(2, wrong); !out.failed {
		t.Error("bytes with the wrong SHA-1 were not counted as a failure")
	}
	var ty tally
	ty.add([]sample{{out: tcp.lookup(1, missing)}, {out: tcp.lookup(2, wrong)}, {out: tcp.lookup(0, good)}})
	if ty.attempted != 3 || ty.failed != 2 {
		t.Errorf("attempted %d failed %d, want 3 and 2", ty.attempted, ty.failed)
	}
}

func TestTCPWriteRemovesItsDataDirectory(t *testing.T) {
	dir := t.TempDir()
	inst, err := setupTCPWrite(1, seams{}, 2, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("expected one data directory under the work directory, found %d entries", len(ents))
	}
	ph := runPhase(inst, 2, 200*time.Millisecond, 1, nil)
	var ty tally
	ty.add(ph.samples)
	if ty.failed != 0 || ty.attempted == 0 {
		t.Errorf("%d of %d ops failed", ty.failed, ty.attempted)
	}
	fin, err := inst.finish()
	if err != nil {
		t.Fatal(err)
	}
	if amp := float64(fin.heldBytes) / float64(fin.userBytes); amp < 3 || amp > 4 {
		t.Errorf("space amplification %.2f, want a little above k=3", amp)
	}
	if err := inst.close(); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("%d entries left under the work directory after close", len(ents))
	}
}

func TestSelfTimesOnAHandBuiltTree(t *testing.T) {
	// One op, 0..100:
	//   client    0 ........................................ 100
	//   transport    10 ............. 50    60 ........ 90
	//   handler         20 ...... 40           (parallel:) 55 ... 95
	//   store              25..30
	// The second transport call and a handler overlap between 60 and 90:
	// the later starter (transport, 60) owns the overlap.
	spans := []span{
		{Layer: layerStore, Start: 25, End: 30, Op: 1},
		{Layer: layerHandler, Start: 20, End: 40, Op: 1},
		{Layer: layerTransport, Start: 10, End: 50, Op: 1},
		{Layer: layerHandler, Start: 55, End: 95, Op: 1},
		{Layer: layerTransport, Start: 60, End: 90, Op: 1},
		{Layer: layerClient, Start: 0, End: 100, Op: 1},
		// A second op with a span that outlives its client span: clipped.
		{Layer: layerClient, Start: 200, End: 210, Op: 2},
		{Layer: layerHandler, Start: 205, End: 230, Op: 2},
		// Spans of an op with no client span are left out.
		{Layer: layerStore, Start: 300, End: 310, Op: 3},
	}
	got := selfTimes(spans)
	want := layerTotals{ops: 2}
	want.self[layerClient] = 10 + 5 + 5 + 5      // op 1: 0-10, 50-55, 95-100; op 2: 200-205
	want.self[layerTransport] = 10 + 10 + 30     // 10-20, 40-50, 60-90
	want.self[layerHandler] = 5 + 10 + 5 + 5 + 5 // 20-25, 30-40, 55-60, 90-95; op 2: 205-210
	want.self[layerStore] = 5
	want.calls[layerClient], want.calls[layerTransport], want.calls[layerHandler], want.calls[layerStore] = 2, 2, 3, 1
	if got != want {
		t.Errorf("selfTimes =\n %+v, want\n %+v", got, want)
	}
	var sum int64
	for _, v := range got.self {
		sum += v
	}
	if sum != 100+10 {
		t.Errorf("the layers add up to %d, want the client spans' 110", sum)
	}

	link(spans)
	for i, wantParent := range []int{1, 2, 5, 5, 3, -1, -1, -1, -1} {
		if spans[i].Parent != wantParent {
			t.Errorf("span %d: parent %d, want %d", i, spans[i].Parent, wantParent)
		}
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(spans) || lines[0] != `{"name":"store","start":25,"end":30,"parent":1,"op":1}` {
		t.Errorf("%d lines, first %s", len(lines), lines[0])
	}
}

// TestSimMirrorsExperiments holds the benchmark's own replay loops to
// the paper harness: same seed and size, same figures, exactly.
func TestSimMirrorsExperiments(t *testing.T) {
	nodes := 60
	if testing.Short() {
		nodes = 20
	}
	const seed = 3
	replay := func(inst *simInstance, err error) (tally, final) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		ph := runPhase(inst, 1, 0, 1, nil)
		var ty tally
		ty.add(ph.samples)
		fin, err := inst.finish()
		if err != nil {
			t.Fatal(err)
		}
		return ty, fin
	}

	ty, fin := replay(newSimFill(nodes, seed, seed, seams{}))
	st, err := experiments.RunStorage(experiments.StorageConfig{Nodes: nodes, TPri: 0.1, TDiv: 0.05, MaxRetries: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if fin.util != st.FinalUtil || ty.rejected != st.Totals.Failed || ty.attempted != st.Totals.Total {
		t.Errorf("sim-fill: util %.12f, %d of %d rejected; RunStorage: util %.12f, %d of %d failed",
			fin.util, ty.rejected, ty.attempted, st.FinalUtil, st.Totals.Failed, st.Totals.Total)
	}

	ty, fin = replay(newSimCache(nodes, 96, seed, nil, seams{}))
	ca, err := experiments.RunCaching(experiments.CachingConfig{Nodes: nodes, Clients: 96, Policy: cache.GDS, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if hit := float64(ty.hits) / float64(ty.lookups); fin.util != ca.FinalUtil || hit != ca.HitRate || ty.hopsMean() != ca.MeanHops || ty.lookups != ca.Lookups {
		t.Errorf("sim-cache: util %.12f hit %.12f hops %.12f of %d lookups; RunCaching: util %.12f hit %.12f hops %.12f of %d",
			fin.util, hit, ty.hopsMean(), ty.lookups, ca.FinalUtil, ca.HitRate, ca.MeanHops, ca.Lookups)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_s", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v, v * 1.005} }
	for _, c := range []struct {
		spec metricSpec
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(105), "same"},
		{lower, steady(100), steady(115), "worse"},
		{lower, steady(100), steady(85), "better"},
		{higher, steady(100), steady(85), "worse"},
		{higher, steady(100), steady(115), "better"},
		{lower, steady(100), []float64{80, 100, 120, 140, 160}, "unresolved"},
		{lower, []float64{100}, []float64{120}, "worse"},
	} {
		if got := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.spec.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, defined %q", i, decl.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	strip := func(specs []metricSpec) []metricSpec {
		out := append([]metricSpec(nil), specs...)
		for i := range out {
			out[i].moves = ""
		}
		return out
	}
	if !reflect.DeepEqual(decl.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end differs from metrics.go:\n%+v\n%+v", decl.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(decl.PerLayer, strip(perLayer)) {
		t.Error("per_layer differs from metrics.go")
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 || len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("run_seconds %d paths %v", decl.RunSeconds, decl.Paths)
	}
}

// TestSmokeRuns runs one loopback and one netsim workload end to end at
// smoke size, untraced and traced, and checks that every declared metric
// comes out.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fleets")
	}
	cfg := runConfig{seed: 2, seconds: 0.6, workdir: t.TempDir(), smoke: true,
		spansOut: filepath.Join(t.TempDir(), "spans.jsonl")}
	for _, name := range []string{"tcp-write", "sim-cache"} {
		w, _ := workloadByName(name)
		res, err := runUntraced(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d\n%s", name, res.Correct, res.Failed, res.Attempted, strings.Join(res.notes, "\n"))
		}
		for _, spec := range endToEnd {
			if m, ok := res.Metrics[spec.Name]; !ok || m.Value <= 0 || m.Unit != spec.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", name, spec.Name, m, spec.Unit)
			}
		}
		res, err = runTraced(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("%s traced: %s", name, strings.Join(res.notes, "\n"))
		}
		for _, spec := range perLayer {
			if _, ok := res.Metrics[spec.Name]; !ok {
				t.Errorf("%s traced: %s missing", name, spec.Name)
			}
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, %d declared", name, len(res.Metrics), len(perLayer))
		}
		if fi, err := os.Stat(cfg.spansOut); err != nil || fi.Size() == 0 {
			t.Errorf("%s traced: no spans written: %v", name, err)
		}
	}
}
