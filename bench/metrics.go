package main

// metricDef names one reported number. BENCHMARK.json carries the same
// name, unit and direction (and, end to end, the bound); `bench -check`
// fails if the two lists drift apart.
type metricDef struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	bound float64
}

// standardSeconds is the run length the workloads were sized for; it is
// BENCHMARK.json's run_seconds. -seconds scales the wire window and the
// ladder's request counts from it.
const standardSeconds = 15

// endToEnd lists the metrics of an untraced run that BENCHMARK.json
// bounds: what a user of the service sees, in both currencies.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_us_per_op", "us", "lower", 0.25},
	{"host_allocs_per_op", "count", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"sim_p99_ms", "ms", "lower", 0.25},
	{"sim_max_rate_ops", "1/s", "higher", 0.25},
	{"sim_write_amp", "ratio", "lower", 0.10},
	{"sim_energy_mj_per_op", "mJ", "lower", 0.10},
}

// alsoReported lists end-to-end numbers every run prints but
// BENCHMARK.json does not bound, because the contract it is written to
// admits neither a metric that reads 0 nor one whose run-to-run spread
// exceeds its bound (a quarter at most). The wall-clock figures of a
// 2-connection closed loop on 2 shared vCPUs spread up to that and past
// it on the box the baseline was taken on (README.md has the table) —
// they are on the record in every run, and a claim on them rests on
// paired runs, not on the bound; fail_frac is 0 on every workload by
// design (the result line carries it as failed/attempted instead); and a
// workload whose log never wraps erases nothing.
var alsoReported = []metricDef{
	{"wall_ops_per_s", "1/s", "higher", 0},
	{"wall_p50_us", "us", "lower", 0},
	{"wall_p99_us", "us", "lower", 0},
	{"sim_erases_per_kop", "count", "lower", 0},
	{"fail_frac", "ratio", "lower", 0},
}

// cpuLayers are the layers a CPU-profile sample can be charged to in the
// traced wire run; simCPULayers the ones the traced sim run can reach
// (no wire, no kernel, no client, and the driver's own frames folded
// into "other", which is not reported there).
var cpuLayers = []string{
	"wire", "server", "cluster", "fs", "storman", "engine", "flash", "dram",
	"obs", "sim", "runtime_gc", "kernel_net", "wire_client", "bench", "other",
}

var simCPULayers = []string{
	"server", "cluster", "fs", "storman", "engine", "flash", "dram", "obs", "sim", "runtime_gc",
}

// cumLayers get a cumulative figure too: samples with any frame of the
// layer on the stack, so work a layer causes in the layers below it (a
// health sweep's registry snapshot, a checkpoint's flash programs) is
// visible against the layer that asked for it.
var cumLayers = []string{"cluster", "fs", "storman", "engine"}

// perLayer lists the metrics of a traced run, in print order.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better})
	}
	for _, l := range cpuLayers {
		add(l+".cpu_us_per_op", "us", "lower")
	}
	for _, l := range cumLayers {
		add(l+".cpu_cum_us_per_op", "us", "lower")
	}
	for _, l := range simCPULayers {
		add(l+".sim_cpu_us_per_op", "us", "lower")
	}
	add("wire.self_us_p50", "us", "lower")
	add("wire.self_us_p99", "us", "lower")
	add("wire.rtt_p999_us", "us", "lower")
	add("wire.bytes_per_op", "B", "lower")
	add("wire.conn_setup_us", "us", "lower")

	add("server.shed_engages", "count", "lower")
	add("server.batched_sync_ratio", "ratio", "higher")
	for _, stage := range []string{"queue", "buffer", "flush", "flash", "clean", "other"} {
		add("server.vt_"+stage+"_share", "ratio", "lower")
	}

	add("cluster.node_ops_per_op", "ratio", "lower")
	add("cluster.shed_retries", "count", "lower")
	add("cluster.replica_sheds", "count", "lower")
	add("cluster.read_failovers", "count", "lower")
	add("cluster.healed_keys", "count", "lower")
	add("cluster.rebalances", "count", "lower")

	add("fs.ops_per_op", "ratio", "lower")
	add("fs.syncs", "count", "lower")
	add("fs.metadata_flash_bytes_per_user_byte", "ratio", "lower")

	add("storman.absorb_ratio", "ratio", "higher")
	add("storman.flushed_bytes_per_user_byte", "ratio", "lower")
	add("storman.dram_read_ratio", "ratio", "higher")
	add("storman.evictions", "count", "lower")
	add("storman.daemon_flushes", "count", "lower")
	add("storman.copy_on_writes", "count", "lower")

	add("engine.write_amp", "ratio", "lower")
	add("engine.cleans", "count", "lower")
	add("engine.idle_clean_ratio", "ratio", "higher")
	add("engine.copied_pages_per_clean", "ratio", "lower")
	add("engine.free_block_margin", "ratio", "higher")
	add("engine.delta_write_ratio", "ratio", "higher")
	add("engine.promotions", "count", "lower")

	add("flash.programs", "count", "lower")
	add("flash.reads", "count", "lower")
	add("flash.erases", "count", "lower")
	add("flash.bytes_programmed", "B", "lower")
	add("flash.read_stall_ms", "ms", "lower")
	add("flash.max_erase_count", "count", "lower")
	add("flash.erase_cov", "ratio", "lower")
	add("flash.energy_mj", "mJ", "lower")

	add("dram.ops", "count", "lower")
	add("dram.energy_mj", "mJ", "lower")

	add("obs.series_count", "count", "lower")
	add("obs.trace_overhead_pct", "%", "lower")

	add("bench.client_gap_us_p50", "us", "lower")
	add("bench.build_s", "s", "lower")
	return defs
}
