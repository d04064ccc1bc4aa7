package main

// def is one metric name with its unit; an end-to-end metric also has
// the direction that is better and the bound: the share of the base
// median by which it may get worse before that counts as a regression.
// BENCHMARK.json at the repository root lists the same names, units,
// directions and bounds; smoke_test.go fails if the two disagree.
type def struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEndDefs are the metrics every workload reports untraced.  Every
// bound is the contract's largest: on the two-core sandbox this was
// written on, a fixed CPU-bound loop already moves by a tenth between
// 20 s windows (README.md, "Noise floor").
var endToEndDefs = []def{
	{"setup_s", "s", "lower", 0.25},
	{"update_per_s", "1/s", "higher", 0.25},
	{"update_p50_us", "us", "lower", 0.25},
	{"converged_per_s", "1/s", "higher", 0.25},
	{"propagation_p50_ms", "ms", "lower", 0.25},
	{"propagation_p80_ms", "ms", "lower", 0.25},
	{"cpu_us_per_update", "us", "lower", 0.25},
}

// layerDefs are the per-layer metrics, grouped by source: L ledger
// micro-timings, C counters read around the window, T the traced rerun.
var layerDefs = []def{
	// L
	{name: "op.apply_ns", unit: "ns"}, {name: "op.commutes_ns", unit: "ns"},
	{name: "et.encode_ns", unit: "ns"}, {name: "et.decode_ns", unit: "ns"}, {name: "et.mset_bytes_1op", unit: "B"}, {name: "et.mset_bytes_4op", unit: "B"},
	{name: "lock.acquire_release_ns", unit: "ns"}, {name: "lock.acquire_release_allocs", unit: "count"}, {name: "lock.counter_inc_dec_ns", unit: "ns"},
	{name: "storage.apply_ns", unit: "ns"}, {name: "storage.mv_install_ns", unit: "ns"}, {name: "storage.mv_readat_depth8_ns", unit: "ns"},
	{name: "storage.get_ns", unit: "ns"}, {name: "storage.pin_unpin_ns", unit: "ns"},
	{name: "wal.append1_us", unit: "us"}, {name: "wal.append32_us", unit: "us"}, {name: "wal.bytes_per_mset", unit: "B"},
	{name: "queue.file_enqueue1_us", unit: "us"}, {name: "queue.file_enqueue32_us", unit: "us"}, {name: "queue.file_ack32_us", unit: "us"},
	{name: "queue.journal_bytes_per_msg", unit: "B"}, {name: "queue.mem_enqueue_ns", unit: "ns"},
	{name: "network.tcp_send_us", unit: "us"}, {name: "network.tcp_batch32_us", unit: "us"}, {name: "network.tcp_call_us", unit: "us"}, {name: "network.sim_send_ns", unit: "ns"},
	{name: "clock.seq_next_ns", unit: "ns"}, {name: "seqrep.reserve_us", unit: "us"},
	{name: "replica.drain_w64_ns_per_mset", unit: "ns"}, {name: "replica.drain_w1024_ns_per_mset", unit: "ns"}, {name: "replica.drain_w8192_ns_per_mset", unit: "ns"},
	{name: "core.read_strong_ns", unit: "ns"}, {name: "core.read_bounded_ns", unit: "ns"}, {name: "core.read_session_ns", unit: "ns"},
	{name: "core.read_eventual_ns", unit: "ns"}, {name: "core.read_eventual_allocs", unit: "count"},
	{name: "ordup.update_ns", unit: "ns"}, {name: "ordup.update_allocs", unit: "count"}, {name: "commu.update_ns", unit: "ns"}, {name: "commu.update_allocs", unit: "count"},
	{name: "ritu.update_ns", unit: "ns"}, {name: "ritu.update_allocs", unit: "count"}, {name: "compe.update_ns", unit: "ns"}, {name: "compe.update_allocs", unit: "count"},
	// C
	{name: "client.propagation_p90_ms", unit: "ms"}, {name: "client.propagation_p99_ms", unit: "ms"},
	{name: "core.journal_syncs_per_update", unit: "count"}, {name: "core.journal_bytes_per_update", unit: "B"},
	{name: "network.frames_per_update", unit: "count"}, {name: "network.bytes_per_update", unit: "B"},
	{name: "network.msgs_per_frame", unit: "count"}, {name: "network.lost_per_update", unit: "count"},
	{name: "replica.applied_per_update", unit: "count"}, {name: "replica.held_per_update", unit: "count"}, {name: "replica.inq_max", unit: "count"},
	{name: "queue.out_backlog_max", unit: "count"}, {name: "replica.staleness_p50_ms", unit: "ms"}, {name: "replica.staleness_max_ms", unit: "ms"},
	{name: "compe.compensations_per_abort", unit: "count"},
	{name: "client.read_strong_per_s", unit: "1/s"}, {name: "client.read_bounded_per_s", unit: "1/s"},
	{name: "client.read_session_per_s", unit: "1/s"}, {name: "client.read_eventual_per_s", unit: "1/s"},
	{name: "client.read_strong_p50_us", unit: "us"}, {name: "client.read_bounded_p50_us", unit: "us"},
	{name: "client.read_session_p50_us", unit: "us"}, {name: "client.read_eventual_p50_us", unit: "us"},
	{name: "client.read_strong_p99_us", unit: "us"}, {name: "client.read_bounded_p99_us", unit: "us"},
	{name: "client.read_session_p99_us", unit: "us"}, {name: "client.read_eventual_p99_us", unit: "us"},
	{name: "client.update_p99_us", unit: "us"}, {name: "client.update_p999_us", unit: "us"},
	{name: "client.gen_late_p99_us", unit: "us"}, {name: "client.gen_late_share", unit: "ratio"},
	{name: "client.probes", unit: "count"}, {name: "client.probes_skipped", unit: "count"},
	{name: "client.gate_timeouts", unit: "count"}, {name: "client.fail_share", unit: "ratio"}, {name: "client.rounds", unit: "count"},
	{name: "client.retained_bytes_per_op", unit: "B"}, {name: "client.ops_per_s", unit: "1/s"},
	{name: "runtime.mallocs_per_op", unit: "count"}, {name: "runtime.alloc_bytes_per_op", unit: "B"}, {name: "runtime.gc_pause_ms", unit: "ms"},
	// T
	{name: "trace.sequence_p50_us", unit: "us"}, {name: "trace.wal_fsync_p50_us", unit: "us"}, {name: "trace.flush_p50_us", unit: "us"},
	{name: "trace.net_send_p50_us", unit: "us"}, {name: "trace.commit_to_receive_p50_us", unit: "us"}, {name: "trace.receive_to_apply_p50_us", unit: "us"},
	{name: "trace.read_wait_p50_us", unit: "us"}, {name: "trace.read_snap_p50_us", unit: "us"},
	{name: "trace.unattributed_pct", unit: "%"}, {name: "trace.overhead_pct", unit: "%"},
	{name: "divergence.charged_share", unit: "ratio"}, {name: "divergence.fallback_share", unit: "ratio"},
}

var units = func() map[string]string {
	m := make(map[string]string, len(endToEndDefs)+len(layerDefs))
	for _, d := range endToEndDefs {
		m[d.name] = d.unit
	}
	for _, d := range layerDefs {
		m[d.name] = d.unit
	}
	return m
}()

// unitOf panics on a name that is not defined above: a metric emitted
// without a definition would be missing from BENCHMARK.json too.
func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " has no definition in defs.go")
	}
	return u
}
