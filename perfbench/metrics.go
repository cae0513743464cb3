package main

// metricSpec names one reported metric and its unit. The lists below are
// the benchmark's contract with BENCHMARK.json: an untraced run reports
// exactly endToEnd, a traced run exactly perLayer.
type metricSpec struct {
	name, unit string
}

var endToEnd = []metricSpec{
	{"blocks_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"setup_s", "s"},
	{"job_latency_p50_s", "s"},
	{"job_latency_p90_s", "s"},
	{"jobs_per_s", "1/s"},
}

var modelNames = []string{"IACA", "llvm-mca", "OSACA", "Facile"}

var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, m := range modelNames {
		p := "models." + m + "."
		out = append(out,
			metricSpec{p + "calls", "count"},
			metricSpec{p + "self_s", "s"},
			metricSpec{p + "p50_us", "us"},
			metricSpec{p + "allocs_per_call", "count"},
			metricSpec{p + "failed_frac", "ratio"})
	}
	return append(out,
		metricSpec{"bound.calls", "count"},
		metricSpec{"bound.self_s", "s"},
		metricSpec{"bound.p50_us", "us"},
		metricSpec{"profiler.calls", "count"},
		metricSpec{"profiler.self_s", "s"},
		metricSpec{"profiler.p50_us", "us"},
		metricSpec{"profiler.p99_us", "us"},
		metricSpec{"profiler.allocs_per_call", "count"},
		metricSpec{"profiler.ok_frac", "ratio"},
		metricSpec{"profiler.host_ns_per_sim_uop", "ns"},
		metricSpec{"machine.prepare_us", "us"},
		metricSpec{"machine.execute_us", "us"},
		metricSpec{"machine.warm_us", "us"},
		metricSpec{"machine.time_us", "us"},
		metricSpec{"x86.decode_ns_per_block", "ns"},
		metricSpec{"corpus.read_s", "s"},
		metricSpec{"runtime.gc_cpu_frac", "ratio"},
		metricSpec{"runtime.gc_cycles", "count"},
		metricSpec{"harness.checkpoint.append_us", "us"},
		metricSpec{"harness.checkpoint.bytes_per_shard", "B"},
		metricSpec{"profcache.hit_frac", "ratio"},
		metricSpec{"profcache.save_ms", "ms"},
		metricSpec{"profcache.save_bytes", "B"},
		metricSpec{"profcache.entries", "count"},
		metricSpec{"server.evaluate_ms", "ms"},
		metricSpec{"server.result_ms", "ms"},
		metricSpec{"server.queue_wait_ms", "ms"},
		metricSpec{"server.non2xx", "count"},
		metricSpec{"trace.overhead_s", "s"},
	)
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metrics map for specs from values; a spec without a
// value, or with no samples behind it (NaN), reads 0.
func fill(specs []metricSpec, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{Value: nanZero(values[s.name]), Unit: s.unit}
	}
	return out
}
