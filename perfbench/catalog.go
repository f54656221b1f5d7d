package main

// The metric catalog. BENCHMARK.json lists the same names and units
// (catalog_test.go holds the two together).

type e2eMetric struct {
	name, unit, better string
}

// endToEnd is what a user of the simulator sees, in host time. Every
// workload reports every entry.
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"live_heap_mib", "MiB", "lower"},
}

type layerMetric struct {
	name, unit, better string
	// moves names the end-to-end metric the entry is expected to move,
	// and on which workload.
	moves string
}

// perLayer is the traced run's ledger. Every workload prints every
// entry; a layer a workload does not run reads 0.
var perLayer = []layerMetric{
	// Set-up: MJ compile, profiling, the JIT memo.
	{"lang.compile_ms", "ms", "lower", "setup_s, every workload"},
	{"core.profile_ms", "ms", "lower", "setup_s, every workload"},
	{"jit.memo_entries", "count", "lower", "setup_s, every workload"},

	// Handset decisions per cohort, summed over the streamed client
	// records (simulated; a pure speed change leaves them identical).
	{"core.exec_interp", "count", "lower", "ops_per_s, fleet-city"},
	{"core.exec_jit", "count", "lower", "ops_per_s, fleet-city"},
	{"core.exec_remote", "count", "lower", "ops_per_s, fleet-city"},
	{"core.memo_hits", "count", "higher", "ops_per_s, fleet-city"},
	{"core.local_compiles", "count", "lower", "ops_per_s, fleet-city"},
	{"core.remote_compiles", "count", "lower", "ops_per_s, fleet-city"},

	// Fleet engine, per cohort (virtual time; deterministic).
	{"fleet.served", "count", "higher", "ops_per_s, fleet-city"},
	{"fleet.shed_pct", "%", "lower", "ops_per_s, fleet-city"},
	{"fleet.wait_p50_ms", "ms", "lower", "ops_per_s, fleet-city"},
	{"fleet.wait_p99_ms", "ms", "lower", "ops_per_s, fleet-city"},
	{"fleet.max_queue_depth", "count", "lower", "ops_per_s, fleet-city"},
	// Fleet engine, host side.
	{"fleet.mutex_wait_ms_per_kclient", "ms", "lower", "ops_per_s, fleet-city"},
	{"runtime.cpu_util", "ratio", "higher", "ops_per_s, fleet-city"},

	// Transport, serialization and session layer (offload-tcp).
	{"net.rtt_ms_p50", "ms", "lower", "op_p50_ms, offload-tcp"},
	{"net.rtt_ms_p90", "ms", "lower", "op_p90_ms, offload-tcp"},
	{"core.client_self_ms_p50", "ms", "lower", "op_p50_ms, offload-tcp"},
	{"net.req_kib_per_op", "KiB", "lower", "ops_per_s, offload-tcp"},
	{"net.resp_kib_per_op", "KiB", "lower", "ops_per_s, offload-tcp"},
	{"net.failed", "count", "lower", "ops_per_s, offload-tcp"},
	{"session.hit_ratio", "ratio", "higher", "ops_per_s, offload-tcp"},
	{"session.shed", "count", "lower", "ops_per_s, offload-tcp"},
	{"session.max_queue_depth", "count", "lower", "ops_per_s, offload-tcp"},

	// Go runtime, every workload.
	{"runtime.alloc_kib_per_op", "KiB", "lower", "ops_per_s and live_heap_mib, every workload"},
	{"runtime.gc_cpu_pct", "%", "lower", "ops_per_s and live_heap_mib, every workload"},

	// Self-time share of the traced run's CPU profile, by package.
	{"cpu.vm_pct", "%", "lower", "ops_per_s, every workload"},
	{"cpu.jit_pct", "%", "lower", "ops_per_s, every workload"},
	{"cpu.isa_pct", "%", "lower", "ops_per_s, every workload"},
	{"cpu.mem_pct", "%", "lower", "ops_per_s, every workload"},
	{"cpu.energy_pct", "%", "lower", "ops_per_s, every workload"},
	{"cpu.radio_pct", "%", "lower", "ops_per_s, every workload"},
	{"cpu.core_pct", "%", "lower", "ops_per_s, every workload"},
	{"cpu.fleet_pct", "%", "lower", "ops_per_s, every workload"},
	{"cpu.obs_pct", "%", "lower", "ops_per_s, every workload"},
	{"cpu.runtime_pct", "%", "lower", "ops_per_s, every workload"},
	{"cpu.other_pct", "%", "lower", "ops_per_s, every workload"},

	// The tracing itself: untraced vs traced throughput of the same work.
	{"trace.untraced_ops_per_s", "1/s", "higher", "ops_per_s, every workload"},
	{"trace.traced_ops_per_s", "1/s", "higher", "nothing: the traced half of the same work"},
	{"trace.overhead_pct", "%", "lower", "nothing: cost of the spans and profile"},
}
