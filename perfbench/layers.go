package main

// perLayer lists the per-layer metrics with their units, in the order
// BENCHMARK.json declares them. A traced run reports every one; a layer
// the workload does not enter reads 0. Counts and times are totals over
// the traced pass (its set-up plus its units of work); the names ending
// in a "per" are ratios.
var perLayer = []struct{ name, unit string }{
	{"engine.calls", "count"},
	{"engine.hits", "count"},
	{"engine.misses", "count"},
	{"engine.dedups", "count"},
	{"engine.hit_ratio", "ratio"},
	{"engine.busy_ms", "ms"},
	{"engine.miss_ms_per_profile", "ms"},
	{"engine.hit_us_per_profile", "us"},
	{"profiler.us_per_iteration", "us"},
	{"gpusim.kernels_per_iteration", "count"},
	{"gpusim.ns_per_kernel", "ns"},
	{"trainer.iterations", "count"},
	{"trainer.self_ms", "ms"},
	{"trainer.self_us_per_iteration", "us"},
	{"core.select_us", "us"},
	{"core.seqpoints", "count"},
	{"core.project_us", "us"},
	{"core.projection_error_pct", "%"},
	{"serving.route_calls", "count"},
	{"serving.route_ns_per_call", "ns"},
	{"serving.route_share_pct", "%"},
	{"serving.decide_calls", "count"},
	{"serving.decide_ns_per_call", "ns"},
	{"serving.batches", "count"},
	{"serving.mean_batch", "count"},
	{"serving.self_ms", "ms"},
	{"serving.ns_per_request", "ns"},
	{"serving.summary_ms", "ms"},
	{"workload.gen_ms", "ms"},
	{"server.serve.handler_ms", "ms"},
	{"server.fleet.handler_ms", "ms"},
	{"server.plan.handler_ms", "ms"},
	{"server.rejected", "count"},
	{"server.engine_misses", "count"},
	{"loadgen.requests", "count"},
	{"loadgen.wait_ms", "ms"},
	{"loadgen.lag_ms", "ms"},
	{"loadgen.error_pct", "%"},
	{"loadgen.achieved_rps", "1/s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"wallclock.wall_s", "s"},
	{"wallclock.p50_ms", "ms"},
	{"wallclock.tail_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.layer_self_pct", "%"},
}

// engineLayers derives the profile-cache metrics from the calls made
// through the traced profile source.
func engineLayers(c *engineCounts, m map[string]float64) {
	m["engine.calls"] = float64(c.lookups)
	m["engine.hits"] = float64(c.hits)
	m["engine.misses"] = float64(c.misses)
	m["engine.dedups"] = float64(c.dedups)
	m["engine.hit_ratio"] = ratio(float64(c.hits), float64(c.lookups))
	m["engine.busy_ms"] = float64(c.busyNS) / 1e6
	m["engine.miss_ms_per_profile"] = ratio(float64(c.missNS)/1e6, float64(c.missProfiles))
	m["engine.hit_us_per_profile"] = ratio(float64(c.hitNS)/1e3, float64(c.hitCallHits))
}
