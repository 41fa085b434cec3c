package main

import (
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// The lists below are the single source of truth inside the program;
// main_test.go fails when they and BENCHMARK.json disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off on every workload. An operation is one facade call to a verified
// result (sim workloads) or one closed-loop pass over the query stream
// (serve_zipf_1024), so every metric exists — and is never 0 — everywhere.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerProbes are the algorithm layers run standalone through sim.RunStep
// on the workload's own graph, engine and algorithm seed; each reports the
// five probeSuffixes.
var layerProbes = []string{
	"routing.session", "routing.session_warm", "routing.route",
	"ruling", "helpers.cold", "helpers.warm",
	"skeleton.compute", "skeleton.explore", "skeleton.flood",
	"ncc.disseminate", "ncc.aggregate", "cliquesim",
}

var probeSuffixes = []metricDef{
	{".rounds", "rounds", "lower"},
	{".wall_ms", "ms", "lower"},
	{".global_msgs", "msgs", "lower"},
	{".local_gbits", "Gbit", "lower"},
	{".alloc_mb", "MB", "lower"},
}

// facadeProbes cover the theorems that have no workload of their own.
var facadeProbes = []string{"kssp.cor46", "sssp", "diameter.cor52"}

var facadeSuffixes = probeSuffixes[:2]

// singleLayer are the single-value per-layer metrics. A metric whose layer
// the traced workload does not execute reads 0 on that workload.
var singleLayer = []metricDef{
	// The traced repetition of the workload itself.
	{"sim.rounds", "rounds", "lower"},
	{"sim.global_msgs", "msgs", "lower"},
	{"sim.local_gbits", "Gbit", "lower"},
	{"sim.max_global_recv", "msgs", "lower"},
	{"sim.max_stretch", "ratio", "lower"},
	{"sim.node_rounds_per_s", "1/s", "higher"},
	{"sim.round_p50_us", "us", "lower"},
	{"sim.round_p99_us", "us", "lower"},
	{"sim.round_max_ms", "ms", "lower"},
	{"sim.top1pct_round_share", "ratio", "lower"},
	{"go.cpu_s", "s", "lower"},
	{"go.gc_cpu_fraction", "ratio", "lower"},
	{"go.num_gc", "count", "lower"},
	{"go.mallocs", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	// Round engine, on the workload's graph and engine.
	{"sim.barrier_us_per_round", "us", "lower"},
	{"sim.global_ns_per_msg", "ns", "lower"},
	{"sim.local_ns_per_msg", "ns", "lower"},
	// Data structures and sequential kernels.
	{"flatmap.set_add_ns", "ns", "lower"},
	{"flatmap.set_has_ns", "ns", "lower"},
	{"bitrand.kwise_hash_ns", "ns", "lower"},
	{"graph.apsp_ms", "ms", "lower"},
	{"graph.next_hops_ms", "ms", "lower"},
	{"clique.mm_ms", "ms", "lower"},
	// Warm-start cache (apsp_grid_1024_warm).
	{"persist.save_ms", "ms", "lower"},
	{"persist.load_ms", "ms", "lower"},
	{"persist.struct_bytes", "B", "lower"},
	{"persist.seed_bytes", "B", "lower"},
	{"cache.rounds_saved", "rounds", "higher"},
	{"cache.cross_seed_rounds", "rounds", "lower"},
	{"cache.hits", "count", "higher"},
	{"cache.misses", "count", "lower"},
	// Distributed engine (apsp_grid_256_dist2).
	{"wire.encode_ns_per_msg", "ns", "lower"},
	{"wire.decode_ns_per_msg", "ns", "lower"},
	{"wire.bytes_per_msg", "B", "lower"},
	{"wire.frame_us_4k", "us", "lower"},
	{"dist.spawn_ms", "ms", "lower"},
	{"dist.route_round_us_empty", "us", "lower"},
	{"dist.route_round_us_full", "us", "lower"},
	{"dist.slowdown_x", "ratio", "lower"},
	// Query server (serve_zipf_1024).
	{"serve.new_tables_ms", "ms", "lower"},
	{"serve.publish_us", "us", "lower"},
	{"serve.reload_ms", "ms", "lower"},
	{"serve.handler_distance_ns", "ns", "lower"},
	{"serve.handler_route_ns", "ns", "lower"},
	{"serve.http_overhead_us", "us", "lower"},
	{"serve.queries_per_s", "1/s", "higher"},
	{"serve.query_p50_us", "us", "lower"},
	{"serve.query_p95_us", "us", "lower"},
	{"serve.query_p99_us", "us", "lower"},
	{"serve.query_p999_us", "us", "lower"},
	{"serve.shed_429", "count", "lower"},
	{"serve.route_hops_mean", "hops", "lower"},
}

// perLayer expands the probe tables into the full per-layer list, in the
// order BENCHMARK.json lists it.
func perLayer() []metricDef {
	var out []metricDef
	for _, p := range layerProbes {
		for _, s := range probeSuffixes {
			out = append(out, metricDef{p + s.Name, s.Unit, s.Better})
		}
	}
	for _, p := range facadeProbes {
		for _, s := range facadeSuffixes {
			out = append(out, metricDef{p + s.Name, s.Unit, s.Better})
		}
	}
	return append(out, singleLayer...)
}

// sample is a metric as one run reports it: a single reading, or the median
// of the run's timed repetitions with their quartiles and count.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"` // repetitions behind Value; 0 for a single reading
}

func summarize(unit string, xs []float64) sample {
	q1, med, q3 := quartiles(xs)
	return sample{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns
// (the exclusive method), which is what the acceptance check of this
// benchmark computes spreads with. Fewer than two values have no spread.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the p-quantile (0..1) of an ascending slice by the
// nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
