package main

// metricSpec declares one metric: BENCHMARK.json lists exactly these,
// and TestBenchmarkJSON holds the two together.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	// moves says which end-to-end metric, on which workload, the layer
	// metric should move (README.md has the full table).
	moves string
}

// endToEnd are the metrics a user of the system would see. Each is
// defined, and never zero, on all five workloads.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "op_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.10},
	{Name: "space_amp", Unit: "ratio", Better: "lower", Bound: 0.02},
	{Name: "hops_mean", Unit: "count", Better: "lower", Bound: 0.10},
}

// perLayer are the metrics of single layers, reported by the traced run.
// The rungs (ns, us, MB/s, allocs of one layer's public calls) are the
// same whatever the workload; the span metrics and counters belong to
// the workload the traced run repeated.
var perLayer = []metricSpec{
	// Rungs.
	{Name: "id.shared_prefix_ns", Unit: "ns", Better: "lower", moves: "cpu_us_per_op on sim-fill; flat on tcp-*"},
	{Name: "id.closer_ns", Unit: "ns", Better: "lower", moves: "cpu_us_per_op on sim-fill; flat on tcp-*"},
	{Name: "wire.enc_route_ns", Unit: "ns", Better: "lower", moves: "ops_s, cpu_us_per_op on tcp-read; flat on sim-*"},
	{Name: "wire.dec_route_ns", Unit: "ns", Better: "lower", moves: "ops_s, cpu_us_per_op on tcp-read; flat on sim-*"},
	{Name: "wire.bytes_route", Unit: "B", Better: "lower", moves: "alloc_kb_per_op on tcp-read; flat on sim-*"},
	{Name: "wire.allocs_route", Unit: "count", Better: "lower", moves: "allocs_per_op on tcp-read; flat on sim-*"},
	{Name: "wire.enc_4k_ns", Unit: "ns", Better: "lower", moves: "op_p50_us, alloc_kb_per_op on tcp-write; flat on sim-*"},
	{Name: "wire.dec_4k_ns", Unit: "ns", Better: "lower", moves: "op_p50_us, alloc_kb_per_op on tcp-write; flat on sim-*"},
	{Name: "wire.allocs_4k", Unit: "count", Better: "lower", moves: "allocs_per_op on tcp-write; flat on sim-*"},
	{Name: "wire.enc_64k_ns", Unit: "ns", Better: "lower", moves: "cpu_us_per_op, alloc_kb_per_op on tcp-ec; flat on sim-*"},
	{Name: "wire.dec_64k_ns", Unit: "ns", Better: "lower", moves: "cpu_us_per_op, alloc_kb_per_op on tcp-ec; flat on sim-*"},
	{Name: "wire.preamble_bytes", Unit: "B", Better: "lower", moves: "setup_s on tcp-*; flat on sim-*"},
	{Name: "transport.rtt_small_us", Unit: "us", Better: "lower", moves: "op_p50_us, ops_s on tcp-read; flat on sim-*"},
	{Name: "transport.rtt_4k_us", Unit: "us", Better: "lower", moves: "op_p50_us on tcp-read, tcp-write; flat on sim-*"},
	{Name: "transport.rtt_64k_us", Unit: "us", Better: "lower", moves: "op_p50_us on tcp-ec; flat on sim-*"},
	{Name: "transport.rtt_allocs", Unit: "count", Better: "lower", moves: "allocs_per_op on tcp-*; flat on sim-*"},
	{Name: "transport.par2_ops_s", Unit: "1/s", Better: "higher", moves: "ops_s on tcp-ec (parallel fragment fetches); flat on sim-*"},
	{Name: "transport.cold_rtt_us", Unit: "us", Better: "lower", moves: "setup_s on tcp-*; flat on sim-*"},
	{Name: "netsim.invoke_ns", Unit: "ns", Better: "lower", moves: "ops_s on sim-fill, sim-cache; flat on tcp-*"},
	{Name: "pastry.route_us", Unit: "us", Better: "lower", moves: "ops_s on sim-*"},
	{Name: "pastry.route_hops", Unit: "count", Better: "lower", moves: "hops_mean on sim-*, tcp-read"},
	{Name: "pastry.route_allocs", Unit: "count", Better: "lower", moves: "allocs_per_op on sim-*"},
	{Name: "pastry.first_hop_ns", Unit: "ns", Better: "lower", moves: "cpu_us_per_op on sim-*"},
	{Name: "pastry.join_ms", Unit: "ms", Better: "lower", moves: "setup_s on every workload"},
	{Name: "store.add_ns", Unit: "ns", Better: "lower", moves: "op_p50_us, ops_s on sim-fill; flat on tcp-read"},
	{Name: "store.get_ns", Unit: "ns", Better: "lower", moves: "ops_s on sim-cache; flat on tcp-ec"},
	{Name: "store.can_accept_ns", Unit: "ns", Better: "lower", moves: "ops_s on sim-fill; flat on tcp-read"},
	{Name: "logstore.add_4k_us", Unit: "us", Better: "lower", moves: "op_p50_us, op_p99_us on tcp-write; flat elsewhere"},
	{Name: "logstore.add_4k_sync_us", Unit: "us", Better: "lower", moves: "information only: the sandbox's disk"},
	{Name: "logstore.get_4k_us", Unit: "us", Better: "lower", moves: "ops_s on tcp-write; flat elsewhere"},
	{Name: "logstore.add_allocs", Unit: "count", Better: "lower", moves: "allocs_per_op on tcp-write; flat elsewhere"},
	{Name: "logstore.open_10k_ms", Unit: "ms", Better: "lower", moves: "information only: no workload reopens a store"},
	{Name: "cachengine.get_hit_ns", Unit: "ns", Better: "lower", moves: "ops_s on sim-cache, tcp-read; flat on sim-fill, tcp-ec"},
	{Name: "cachengine.get_miss_ns", Unit: "ns", Better: "lower", moves: "ops_s on sim-cache, tcp-read; flat on sim-fill, tcp-ec"},
	{Name: "cachengine.insert_evict_ns", Unit: "ns", Better: "lower", moves: "ops_s on sim-cache, tcp-read; flat on sim-fill, tcp-ec"},
	{Name: "cachengine.par2_get_ns", Unit: "ns", Better: "lower", moves: "ops_s on tcp-read (2 clients); flat on sim-*"},
	{Name: "cachengine.allocs_insert", Unit: "count", Better: "lower", moves: "allocs_per_op on sim-cache, tcp-read"},
	{Name: "cache.gds_insert_evict_ns", Unit: "ns", Better: "lower", moves: "the legacy package, so cache consolidation has a before and after"},
	{Name: "rs.encode_mb_s", Unit: "MB/s", Better: "higher", moves: "cpu_us_per_op on tcp-ec only"},
	{Name: "rs.reconstruct_mb_s", Unit: "MB/s", Better: "higher", moves: "op_p50_us on tcp-ec only"},
	{Name: "ec.map_encode_ns", Unit: "ns", Better: "lower", moves: "cpu_us_per_op on tcp-ec only"},
	{Name: "ec.map_decode_ns", Unit: "ns", Better: "lower", moves: "op_p50_us on tcp-ec only"},
	{Name: "ec.frag_put_get_ns", Unit: "ns", Better: "lower", moves: "cpu_us_per_op on tcp-ec only"},
	{Name: "cert.issue_file_us", Unit: "us", Better: "lower", moves: "information: certificates are off in all five workloads"},
	{Name: "cert.verify_file_us", Unit: "us", Better: "lower", moves: "information: certificates are off in all five workloads"},
	{Name: "admit.try_admit_ns", Unit: "ns", Better: "lower", moves: "information: admission control is off in all five workloads"},
	{Name: "obs.stats_snapshot_us", Unit: "us", Better: "lower", moves: "cpu_us_per_op when a fleet is scraped; no workload scrapes"},
	{Name: "obs.traced_lookup_extra_us", Unit: "us", Better: "lower", moves: "information: the program's own tracer is off in all five workloads"},
	{Name: "past.sim_lookup_hit_us", Unit: "us", Better: "lower", moves: "op_p50_us on sim-cache"},
	{Name: "past.sim_lookup_routed_us", Unit: "us", Better: "lower", moves: "protocol share of op_p50_us on tcp-read; ops_s on sim-cache"},
	{Name: "past.sim_lookup_routed_allocs", Unit: "count", Better: "lower", moves: "allocs_per_op on sim-cache"},
	{Name: "past.sim_insert_us", Unit: "us", Better: "lower", moves: "op_p50_us on sim-fill; protocol share of op_p50_us on tcp-write"},
	{Name: "past.sim_insert_allocs", Unit: "count", Better: "lower", moves: "allocs_per_op on sim-fill"},
	{Name: "past.sim_ec_insert_us", Unit: "us", Better: "lower", moves: "protocol share of insert latency on tcp-ec"},
	{Name: "past.sim_ec_lookup_us", Unit: "us", Better: "lower", moves: "protocol share of op_p50_us on tcp-ec"},
	{Name: "past.tcp_lookup_routed_us", Unit: "us", Better: "lower", moves: "op_p50_us on tcp-read: minus sim_lookup_routed_us is the wire cost"},
	{Name: "past.tcp_insert_us", Unit: "us", Better: "lower", moves: "op_p50_us on tcp-write: minus sim_insert_us is the wire cost"},
	{Name: "past.maintain_pass_ms", Unit: "ms", Better: "lower", moves: "information: no maintenance runs in a measured phase"},

	// Spans and counters of the traced repeat of the workload.
	{Name: "client.self_us_per_op", Unit: "us", Better: "lower", moves: "op_p50_us: the client's own round trip to its access point on tcp-*"},
	{Name: "net.self_us_per_op", Unit: "us", Better: "lower", moves: "op_p50_us, ops_s: node-to-node wire time on tcp-*, netsim dispatch on sim-*"},
	{Name: "net.rpcs_per_op", Unit: "count", Better: "lower", moves: "ops_s: messages a node sends per op"},
	{Name: "past.handler_self_us_per_op", Unit: "us", Better: "lower", moves: "cpu_us_per_op: pastry, past and cache code inside Deliver"},
	{Name: "past.handlers_per_op", Unit: "count", Better: "lower", moves: "ops_s: deliveries per op"},
	{Name: "store.self_us_per_op", Unit: "us", Better: "lower", moves: "op_p50_us on sim-fill, tcp-write; flat on tcp-read"},
	{Name: "store.calls_per_op", Unit: "count", Better: "lower", moves: "ops_s on sim-fill"},
	{Name: "pastry.hops_per_op", Unit: "count", Better: "lower", moves: "hops_mean"},
	{Name: "past.attempts_per_insert", Unit: "count", Better: "lower", moves: "op_p99_us on sim-fill (file diversion)"},
	{Name: "past.replica_divert_pct", Unit: "%", Better: "lower", moves: "op_p50_us on sim-fill (replica diversion)"},
	{Name: "past.insert_reject_pct", Unit: "%", Better: "lower", moves: "the paper's insert failure ratio on sim-fill; must not move"},
	{Name: "store.util_pct", Unit: "%", Better: "higher", moves: "the paper's final utilisation on sim-fill, sim-cache; must not move"},
	{Name: "cachengine.hit_pct", Unit: "%", Better: "higher", moves: "hops_mean, ops_s on sim-cache, tcp-read: lookups answered from a cache"},
	{Name: "cachengine.evictions_per_op", Unit: "count", Better: "lower", moves: "cpu_us_per_op on sim-cache, tcp-read"},
	{Name: "cachengine.admit_rejects_per_op", Unit: "count", Better: "lower", moves: "cachengine.hit_pct"},
	{Name: "logstore.write_amp", Unit: "ratio", Better: "lower", moves: "space_amp on tcp-write"},
	{Name: "logstore.fsyncs_per_op", Unit: "count", Better: "lower", moves: "op_p99_us on tcp-write"},
	{Name: "logstore.wal_bytes_per_op", Unit: "B", Better: "lower", moves: "space_amp on tcp-write"},
	{Name: "ec.frag_reads_per_lookup", Unit: "count", Better: "lower", moves: "op_p50_us on tcp-ec"},
	{Name: "ec.reconstructs_per_lookup", Unit: "count", Better: "lower", moves: "cpu_us_per_op on tcp-ec"},
	{Name: "ec.crc_failures", Unit: "count", Better: "lower", moves: "must stay 0"},
	{Name: "runtime.gc_cycles_per_kop", Unit: "count", Better: "lower", moves: "op_p99_us"},
	{Name: "runtime.gc_pause_us_per_kop", Unit: "us", Better: "lower", moves: "op_p99_us"},
	{Name: "runtime.live_heap_mb", Unit: "MB", Better: "lower", moves: "memory a fleet of this size holds at the end of the traced phase"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", moves: "what recording spans costs ops_s; end-to-end numbers never include it"},
	{Name: "budget.lookup_residual_pct", Unit: "%", Better: "lower", moves: "share of the lookup p50 the rungs times the span counts do not explain"},
	{Name: "budget.insert_residual_pct", Unit: "%", Better: "lower", moves: "share of the insert p50 the rungs times the span counts do not explain"},
}
