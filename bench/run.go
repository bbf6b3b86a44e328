package main

import (
	"fmt"
	"runtime"
	"time"
)

// Sizes of the netsim workloads. The paper ran 2250 nodes; these are the
// largest clusters whose complete replay fits twice in one run (see
// README.md, "Sizes").
const (
	simFillNodes  = 100
	simCacheNodes = 80
)

// rounds is how many times a timed workload is set up and measured in
// one untraced run; each round is cut into roundSegments segments.
const (
	rounds        = 3
	roundSegments = 4
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the contract's last line of
// output, and one record of a -out file.
type result struct {
	Workload  string            `json:"workload,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
	Trace     bool              `json:"trace,omitempty"`
	Go        string            `json:"go,omitempty"`
	CPUs      int               `json:"cpus,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes are the lines printed above the metrics: sample counts,
	// per-type percentiles, what failed.
	notes []string
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) set(specs []metricSpec, name string, v float64) {
	for _, s := range specs {
		if s.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: s.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

type runConfig struct {
	seed     int64
	seconds  float64
	workdir  string
	smoke    bool   // tiny fleets and traces, for the tests
	spansOut string // traced run: write the spans here as JSON lines
}

func (c runConfig) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// round is one set-up, one measured phase and its end-of-run figures.
type round struct {
	setup time.Duration
	phase phase
	tally tally
	fin   final
	heap  uint64 // HeapAlloc after a forced GC, instance still alive
}

func runRound(w workload, cfg runConfig, sm seams, clients int, dur time.Duration, nseg int) (round, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := w.setup(cfg.seed, sm, clients, cfg.workdir, cfg.smoke)
	if err != nil {
		return round{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	r := round{setup: time.Since(t0)}
	r.phase = runPhase(inst, clients, dur, nseg, sm.rec)
	r.tally.add(r.phase.samples)
	r.fin, err = inst.finish()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heap = ms.HeapAlloc
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return round{}, fmt.Errorf("%s: %w", w.name, err)
	}
	return r, nil
}

// runUntraced measures the end-to-end metrics with tracing off.
func runUntraced(w workload, cfg runConfig) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, Correct: true, Metrics: map[string]metric{}}
	var rs []round
	var measured time.Duration
	speed := []speedSample{calibrate()}
	for {
		dur, nseg := cfg.dur(1.0/rounds), roundSegments
		if w.finite {
			dur, nseg = 0, 1
		}
		r, err := runRound(w, cfg, seams{}, w.clients, dur, nseg)
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
		speed = append(speed, calibrate())
		last := r.phase.segments[0].wall
		measured += last
		if !w.finite && len(rs) == rounds {
			break
		}
		// A replay is a fixed amount of work: run it twice at least (the
		// second checks the first), then as often as fits in the time.
		if w.finite && len(rs) >= 2 && measured+last/2 > cfg.dur(1) {
			break
		}
	}

	var segs []segment
	var setups, amps, hops, heaps []float64
	var all tally
	for i, r := range rs {
		segs = append(segs, r.phase.segments...)
		setups = append(setups, r.setup.Seconds())
		heaps = append(heaps, float64(r.heap)/(1<<20))
		if r.fin.userBytes > 0 {
			amps = append(amps, float64(r.fin.heldBytes)/float64(r.fin.userBytes))
		}
		hops = append(hops, r.tally.hopsMean())
		all.add(r.phase.samples)
		if w.finite && i > 0 && r.tally.fingerprint(r.fin) != rs[0].tally.fingerprint(rs[0].fin) {
			res.Correct = false
			res.notef("FAIL replay %d differs from replay 0 at the same seed:\n  %s\n  %s",
				i, r.tally.fingerprint(r.fin), rs[0].tally.fingerprint(rs[0].fin))
		}
	}
	res.Attempted, res.Failed = all.attempted, all.failed
	if all.failed > 0 || all.attempted == 0 {
		res.Correct = false
		res.notef("FAIL %d of %d ops failed (error, refusal, not-found for an acknowledged file, or wrong bytes)", all.failed, all.attempted)
	}

	put := func(name string, v float64, ok bool) {
		if !ok {
			res.Correct = false
			res.notef("FAIL no value for %s", name)
			return
		}
		res.set(endToEnd, name, v)
	}
	// Timing metrics are reported at reference machine speed (calib.go).
	slow := slowdown(speed)
	raw := "as measured:"
	putTime := func(name string, v float64, ok bool) {
		put(name, v/slow, ok)
		raw += fmt.Sprintf(" %s %.4f", name, v)
	}
	v, ok := median(setups)
	putTime("setup_s", v, ok)
	v, ok = segmentMedian(segs, func(s segment) (float64, bool) { return float64(s.done) / s.wall.Seconds(), s.done > 0 })
	put("ops_s", v*slow, ok)
	raw += fmt.Sprintf(" ops_s %.1f", v)
	v, ok = segmentMedian(segs, latPercentile(w.primary, 50))
	putTime("op_p50_us", v, ok)
	v, ok = segmentMedian(segs, latPercentile(w.primary, 99))
	putTime("op_p99_us", v, ok)
	v, ok = segmentMedian(segs, perOp(func(s segment) float64 { return us(s.cpu) }))
	putTime("cpu_us_per_op", v, ok)
	v, ok = segmentMedian(segs, perOp(func(s segment) float64 { return float64(s.mallocs) }))
	put("allocs_per_op", v, ok)
	v, ok = segmentMedian(segs, perOp(func(s segment) float64 { return float64(s.bytes) / 1024 }))
	put("alloc_kb_per_op", v, ok)
	v, ok = median(amps)
	put("space_amp", v, ok)
	v, ok = median(hops)
	put("hops_mean", v, ok)

	// Information beside the metrics: every op type's percentiles with
	// their sample counts, and the figures that are not defined on every
	// workload and so cannot be contract metrics.
	res.notef("%d rounds, %d segments, %d clients, closed loop, cpus=%d", len(rs), len(segs), w.clients, runtime.GOMAXPROCS(0))
	res.notef("machine ran %.3f times slower than the reference (%d kernel samples); timing metrics are scaled to reference speed", slow, len(speed))
	res.notes = append(res.notes, raw)
	for _, k := range []opKind{opLookup, opInsert} {
		var lat []time.Duration
		for _, s := range segs {
			lat = append(lat, s.lat[k]...)
		}
		if len(lat) == 0 {
			res.notef("%s_p50_us n/a  %s_p99_us n/a  (no %ss in this workload)", k, k, k)
			continue
		}
		p50, _ := segmentMedian(segs, latPercentile(k, 50))
		p99, _ := segmentMedian(segs, latPercentile(k, 99))
		p999, _ := percentile(lat, 99.9)
		res.notef("%s_p50_us %.1f  %s_p99_us %.1f  %s_p99.9_us %.1f (information only)  n=%d  (as measured)", k, p50, k, p99, k, us(p999), len(lat))
	}
	last := rs[len(rs)-1]
	res.notef("util_pct %.3f  hit_pct %s  reject_pct %.3f (inserts the storage policy refused: the paper's failure ratio, not a failed op)  skipped %d",
		100*last.fin.util, naIf(all.lookups == 0, all.hitPct()), all.rejectPct(), all.skipped)
	hm, _ := median(heaps)
	res.notef("live_heap_mb %.1f (after a forced GC at the end of a round)", hm)
	return res, nil
}

func naIf(na bool, v float64) string {
	if na {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}

// runTraced repeats the workload with one client and span recording at
// the three seams, alternating recorded and unrecorded blocks of ops,
// then measures the rungs. It reports the per-layer metrics.
func runTraced(w workload, cfg runConfig) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, Trace: true, Correct: true, Metrics: map[string]metric{}}
	rec := newRecorder()
	dur := cfg.dur(0.5)
	if w.finite {
		dur = 0
	}
	r, err := runRound(w, cfg, seams{rec: rec}, 1, dur, 1)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = r.tally.attempted, r.tally.failed
	if r.tally.failed > 0 || r.tally.attempted == 0 {
		res.Correct = false
		res.notef("FAIL %d of %d ops failed", r.tally.failed, r.tally.attempted)
	}
	link(rec.spans)
	if cfg.spansOut != "" {
		if err := writeSpans(cfg.spansOut, rec.spans); err != nil {
			return nil, err
		}
		res.notef("%d spans written to %s", len(rec.spans), cfg.spansOut)
	}

	// The ladder has 56 timed loops, each lasting one to two slots, and
	// fixtures that take about as long again: this slot fills the other
	// half of the run.
	rungs, err := runRungs(cfg.dur(0.5)/(56*4), cfg.seed, cfg.workdir)
	if err != nil {
		return nil, fmt.Errorf("rungs: %w", err)
	}
	for name, v := range rungs {
		res.set(perLayer, name, v)
	}

	// Span metrics: all traced ops, then lookups and inserts apart for
	// the latency budget.
	kindOf := map[int64]opKind{} // span op id -> op type
	var lat [2][]time.Duration
	var on, off struct {
		n   int
		sum time.Duration
	}
	var inserts, attempts int
	for _, s := range r.phase.samples {
		kindOf[int64(s.op)] = s.out.kind
		if s.out.failed || s.out.skipped {
			continue
		}
		if s.out.kind == opInsert {
			inserts++
			attempts += s.out.attempts
		}
		if s.traced {
			on.n, on.sum = on.n+1, on.sum+s.out.lat
			lat[s.out.kind] = append(lat[s.out.kind], s.out.lat)
		} else {
			off.n, off.sum = off.n+1, off.sum+s.out.lat
		}
	}
	tot := selfTimes(rec.spans)
	if tot.ops == 0 || on.n == 0 || off.n == 0 {
		return nil, fmt.Errorf("%s: traced run recorded no ops", w.name)
	}
	perOpUS := func(t layerTotals, l layer) float64 { return float64(t.self[l]) / 1e3 / float64(t.ops) }
	perOpN := func(t layerTotals, l layer) float64 { return float64(t.calls[l]) / float64(t.ops) }
	netLayer := layerTransport
	if w.finite {
		netLayer = layerNetsim
	}
	res.set(perLayer, "client.self_us_per_op", perOpUS(tot, layerClient))
	res.set(perLayer, "net.self_us_per_op", perOpUS(tot, netLayer))
	res.set(perLayer, "net.rpcs_per_op", perOpN(tot, netLayer))
	res.set(perLayer, "past.handler_self_us_per_op", perOpUS(tot, layerHandler))
	res.set(perLayer, "past.handlers_per_op", perOpN(tot, layerHandler))
	res.set(perLayer, "store.self_us_per_op", perOpUS(tot, layerStore))
	res.set(perLayer, "store.calls_per_op", perOpN(tot, layerStore))

	done := float64(r.tally.attempted - r.tally.failed)
	c := r.fin.counters
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	res.set(perLayer, "pastry.hops_per_op", r.tally.hopsMean())
	res.set(perLayer, "past.attempts_per_insert", ratio(float64(attempts), float64(inserts)))
	res.set(perLayer, "past.replica_divert_pct", 100*ratio(c["past.diverted_in"], c["past.replicas_stored"]))
	res.set(perLayer, "past.insert_reject_pct", r.tally.rejectPct())
	res.set(perLayer, "store.util_pct", 100*r.fin.util)
	res.set(perLayer, "cachengine.hit_pct", r.tally.hitPct())
	res.set(perLayer, "cachengine.evictions_per_op", c["cache.evictions"]/done)
	res.set(perLayer, "cachengine.admit_rejects_per_op", c["cache.admit_rejects"]/done)
	logBytes := 0.0
	if c["logstore.wal_bytes"] > 0 {
		logBytes = float64(r.fin.heldBytes)
	}
	res.set(perLayer, "logstore.write_amp", ratio(logBytes, c["store.replica_bytes"]))
	res.set(perLayer, "logstore.fsyncs_per_op", c["logstore.fsyncs"]/done)
	res.set(perLayer, "logstore.wal_bytes_per_op", c["logstore.wal_bytes"]/done)
	res.set(perLayer, "ec.frag_reads_per_lookup", ratio(c["ec.frag_reads"], float64(r.tally.lookups)))
	res.set(perLayer, "ec.reconstructs_per_lookup", ratio(c["ec.reconstructs"], float64(r.tally.lookups)))
	res.set(perLayer, "ec.crc_failures", c["ec.crc_failures"])
	seg := r.phase.segments[0]
	res.set(perLayer, "runtime.gc_cycles_per_kop", 1000*float64(seg.gcs)/done)
	res.set(perLayer, "runtime.gc_pause_us_per_kop", 1000*us(seg.pause)/done)
	res.set(perLayer, "runtime.live_heap_mb", float64(r.heap)/(1<<20))
	rateOn, rateOff := float64(on.n)/on.sum.Seconds(), float64(off.n)/off.sum.Seconds()
	res.set(perLayer, "trace.overhead_pct", 100*(rateOff-rateOn)/rateOff)
	res.notef("traced repeat: 1 client, %d ops recorded at %.0f/s, %d unrecorded at %.0f/s, %d spans", on.n, rateOn, off.n, rateOff, len(rec.spans))

	// Latency budget: what the rungs and the span counts predict for one
	// op, against what the client measured. Span self times are means, and
	// only means add up, so the budget is drawn against the mean latency
	// of the recorded ops; the p50 is printed beside it.
	rtt := rungs["transport.rtt_4k_us"]
	if w.finite {
		rtt = rungs["netsim.invoke_ns"] / 1e3
	}
	res.notef("latency budget (us per op): measured mean = net rung x calls + handler self + store self + residual")
	for _, k := range []opKind{opLookup, opInsert} {
		name := "budget." + k.String() + "_residual_pct"
		var spans []span
		for _, s := range rec.spans {
			if kindOf[s.Op] == k {
				spans = append(spans, s)
			}
		}
		t := selfTimes(spans)
		if t.ops == 0 {
			res.set(perLayer, name, 0)
			res.notef("  %-6s n/a (no %ss in this workload)", k, k)
			continue
		}
		calls := perOpN(t, netLayer)
		if !w.finite {
			calls++ // the client's own round trip to the access point
		}
		mean := perOpUS(t, layerClient) + perOpUS(t, netLayer) + perOpUS(t, layerHandler) + perOpUS(t, layerStore)
		predicted := rtt*calls + perOpUS(t, layerHandler) + perOpUS(t, layerStore)
		residual := 100 * (mean - predicted) / mean
		res.set(perLayer, name, residual)
		p50, _ := percentile(lat[k], 50)
		res.notef("  %-6s %.1f (p50 %.1f, n=%d) = %.2f x %.2f + %.1f + %.1f + residual %.1f (%.1f%%); measured self: client %.1f net %.1f",
			k, mean, us(p50), t.ops, rtt, calls, perOpUS(t, layerHandler), perOpUS(t, layerStore), mean-predicted, residual,
			perOpUS(t, layerClient), perOpUS(t, netLayer))
	}
	return res, nil
}
