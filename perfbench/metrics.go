package main

// endToEnd and perLayer list every metric the benchmark reports, with its
// unit. The end-to-end metrics come from the untraced run (--trace 0), the
// per-layer ones from the traced run (--trace 1); BENCHMARK.json names the
// same sets in the same order. A per-layer metric whose layer a workload
// does not use reads 0.
var endToEnd = []metricDef{
	{"qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"goodput_qps", "1/s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MiB"},
}

var perLayer = []metricDef{
	{"setup.datagen_s", "s"},
	{"setup.engine_s", "s"},
	{"query.compile_us_per_query", "us"},
	{"exec.session_ms_per_batch", "ms"},
	{"engine.run_ms_per_batch", "ms"},
	{"engine.episodes_per_query", "count"},
	{"engine.episode_us_p50", "us"},
	{"engine.episode_us_p90", "us"},
	{"engine.worker_busy_frac", "frac"},
	{"engine.submit_us_p50", "us"},
	{"engine.submit_us_p90", "us"},
	{"engine.admit_wait_ms_p50", "ms"},
	{"engine.slot_full_retries", "count"},
	{"engine.gc_quanta", "count"},
	{"engine.gc_ms", "ms"},
	{"engine.fence_wait_ms", "ms"},
	{"qlearn.decisions_per_episode", "count"},
	{"qlearn.choose_ns_per_decision", "ns"},
	{"qlearn.observe_us_per_episode", "us"},
	{"qlearn.policy_share", "frac"},
	{"qlearn.explore_frac", "frac"},
	{"qlearn.q_states", "count"},
	{"exec.filter_ns_per_tuple", "ns"},
	{"exec.build_ns_per_tuple", "ns"},
	{"exec.probe_ns_per_tuple", "ns"},
	{"exec.router_ns_per_episode", "ns"},
	{"exec.sharing_factor", "frac"},
	{"exec.intermediate_tuples_per_query", "count"},
	{"stem.probe_hit_rate", "frac"},
	{"stem.peak_mb", "MiB"},
	{"stem.reclaim_frac", "frac"},
	{"host.result_ms_per_batch", "ms"},
	{"policystore.ms_per_batch", "ms"},
	{"policystore.hit_frac", "frac"},
	{"policystore.warm_queries_frac", "frac"},
	{"admission.tenant_p50_ratio", "ratio"},
	{"runtime.allocs_per_episode", "count"},
	{"runtime.bytes_per_episode", "B"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"runtime.gc_pause_ms", "ms"},
	{"gen.late_ms_p90", "ms"},
	{"gen.late_ms_max", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.unaccounted_frac", "frac"},
}

type metricDef struct{ name, unit string }

// fill returns a metrics map holding every metric of defs, taking values
// from vals and 0 for the ones vals lacks. A value whose name defs does not
// list is a programming error.
func fill(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	for k := range vals {
		if _, ok := out[k]; !ok {
			panic("perfbench: unlisted metric " + k)
		}
	}
	return out
}
