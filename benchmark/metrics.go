package main

import "repro/internal/router"

// metricDef declares one metric of the benchmark's contract. BENCHMARK.json
// repeats this table (bench_test.go checks the two agree); Bound is the
// share of the parent's median an end-to-end metric may worsen by.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the simulator sees: how long the
// experiment takes, how fast simulated time advances, what a simulated
// event costs in host time, and what the process costs in memory.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"sim_mcycles_per_s", "Mcycles/s", "higher", 0.25},
	{"host_ns_per_flit_hop", "ns", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.12},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, one group per simulator module.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	perArch := func(prefix string) []string {
		var names []string
		for _, a := range router.Archs {
			names = append(names, prefix+archKey(a))
		}
		return names
	}
	// Fidelity and the benchmark's own checks.
	add("pp", "lower", "paper_gap_pp")
	add("count", "lower", "golden.mismatch_cells")
	add("pct", "lower", "trace.overhead_pct")
	add("pct", "higher", "trace.attributed_pct")
	// harness, exp, batch.
	add("count", "lower", "harness.cells")
	add("ms", "lower", "harness.cell_ms_p50", "harness.cell_ms_max")
	add("s", "lower", perArch("harness.arch_s.")...)
	add("ns", "lower", "harness.nox_ns_per_cycle.r200", "harness.nox_ns_per_cycle.r1800", "harness.nox_ns_per_cycle.r3400")
	add("x", "higher", "harness.warmstart_speedup", "exp.pool_speedup", "batch.cohort_speedup")
	// network.
	add("ms", "lower", "network.build_ms", "network.build_ms.mesh32", "network.drain_ms")
	add("ns", "lower", "network.inject_ns", "network.idle_step_ns", "network.ffwd_ns")
	add("us", "lower", "network.step_us_p50", "network.step_us_p99", "network.check_invariants_us", "network.step_us.mesh32.serial")
	add("us", "lower", perArch("network.steady_step_us.")...)
	add("count", "higher", "network.auto_shards")
	add("x", "higher", "network.shard_speedup.mesh32")
	add("count", "lower", "network.reconfig_epochs", "network.retransmits", "network.undeliverable")
	// sim.
	add("ns", "lower", "sim.walk_ns_per_comp.dense", "sim.walk_ns_per_comp.sparse", "sim.idle_step_ns", "sim.wake_ns")
	add("ratio", "lower", "sim.active_share")
	// router, core, noc.
	add("ns", "lower", perArch("router.cycle_ns.")...)
	add("count", "lower", "router.buf_writes", "router.xbar", "router.arb")
	add("ratio", "lower", "router.wasted_cycle_share")
	add("ns", "lower", "core.decide_ns", "core.inputport_ns")
	add("count", "lower", "core.collisions", "core.encoded_flits", "core.decodes", "core.aborts")
	add("ns", "lower", "noc.link_cycle_ns", "noc.arena_ns")
	add("count", "lower", "noc.link_flits", "noc.link_invalid")
	// traffic, trace, stats.
	add("ns", "lower", "traffic.tick_ns.bernoulli", "traffic.tick_ns.selfsimilar", "traffic.dest_ns.uniform", "stats.record_ns")
	add("ms", "lower", "trace.generate_ms", "stats.percentiles_ms")
	add("count", "lower", "trace.events")
	// routing, snapshot.
	add("us", "lower", "routing.table_build_us", "routing.table_build_us.mesh32", "routing.updown_rebuild_us")
	add("ms", "lower", "snapshot.encode_ms", "snapshot.decode_ms")
	add("KB", "lower", "snapshot.image_kb")
	// check, fault, probe, telemetry.
	add("pct", "lower", "check.step_overhead_pct", "fault.step_overhead_pct", "probe.step_overhead_pct", "telemetry.recorder_overhead_pct")
	return defs
}
