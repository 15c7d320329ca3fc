package main

// This file is the benchmark's contract in Go form: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer metric
// names. BENCHMARK.json at the repository root states the same lists for the
// driver; TestSpecMatchesBenchmarkJSON keeps the two in step.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	wlPaperDense    = "paper_dense"
	wlSparseExact   = "sparse_exact"
	wlSparseIndexed = "sparse_indexed"
	wlServeMixed    = "serve_mixed"
)

var workloads = []workloadSpec{
	{wlPaperDense, "Paper Table 4/6 shape: D-Z x0.2 (2100x2100, d=128, RREA), dense sim.Matrix then all seven matchers; internal/core dense bodies do ~90% of the work, the scan almost none."},
	{wlSparseExact, "D-W x0.08 (5600x5600, name embeddings), C=64: five sparse matchers each re-stream the exhaustive tile pass; sim.Stream + matrix heaps + the f64 blocked kernel dominate."},
	{wlSparseIndexed, "Same tables through ann, quant, ann_quant, shard4 and shard4_ooc engines x three producer entry points: int8 kernel, cell-restricted scans, shard gather, mmapped rows, index training in the clock."},
	{wlServeMixed, "IVF+SQ8 snapshot behind a loopback net/http listener: closed-loop GET /match/topk (rate at GOMAXPROCS callers, latency at one), then POST /align; internal/server and snapshot mmap carry the load."},
}

// endToEnd lists what a user of the system sees. Every workload reports every
// metric (the driver requires it), so the request-level names are defined per
// workload — see README.md, "End-to-end metrics".
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"align_s", "s", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.20},
	{"f1_mean", "ratio", "higher", 0.15},
	{"op_per_s", "1/s", "higher", 0.25},
	{"op_typical_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
}

// Matcher keys: the suffix each matcher contributes to core.<key>_s and
// core.<key>.f1.
var (
	denseKeys  = []string{"dinf", "csls", "rinf", "sinkhorn", "hungarian", "smat", "rl"}
	sparseKeys = []string{"rinf_sparse", "csls_sparse", "hungarian_sparse", "smat_sparse", "sinkhorn_sparse"}
	// indexedVariants are the engine variants of sparse_indexed, in run order.
	indexedVariants = []string{"ann", "quant", "ann_quant", "shard4", "shard4_ooc"}
)

// perLayer lists the traced run's metrics, layer = package name. A metric a
// workload does not exercise is reported as 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	l := func(name, unit, better string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: better} }
	out := []metricSpec{
		// set-up
		l("datagen.generate_s", "s", "lower"),
		l("embed.encode_rrea_s", "s", "lower"),
		l("embed.encode_names_s", "s", "lower"),
		// load
		l("kg.load_s", "s", "lower"),
		l("embed.load_s", "s", "lower"),
		l("embed.load_mib_per_s", "MiB/s", "higher"),
		// root package
		l("pipeline.prepare_s", "s", "lower"),
	}
	for _, v := range indexedVariants {
		out = append(out, l("pipeline.prepare_s."+v, "s", "lower"))
	}
	out = append(out,
		l("pipeline.match_s", "s", "lower"),
		// sim
		l("sim.matrix_s", "s", "lower"),
		l("sim.matrix_gflops", "GFLOP/s", "higher"),
		l("sim.stream_s", "s", "lower"),
		l("sim.stream_mpairs_per_s", "Mpair/s", "higher"),
		l("sim.stream_passes", "count", "lower"),
		// matrix
		l("matrix.produce_s", "s", "lower"),
		l("matrix.candgraph_s", "s", "lower"),
		l("matrix.candgraph_edges", "count", "higher"),
		l("matrix.dot_block3_mpairs_per_s", "Mpair/s", "higher"),
		l("matrix.dot_block3_bytes_per_pair", "B", "lower"),
		// quant
		l("quant.encode_s", "s", "lower"),
		l("quant.produce_s", "s", "lower"),
		l("quant.dot_i8_block4_mpairs_per_s", "Mpair/s", "higher"),
		l("quant.table_ratio", "ratio", "higher"),
		l("quant.recall_at_c", "ratio", "higher"),
		// ann
		l("ann.build_s", "s", "lower"),
		l("ann.produce_s", "s", "lower"),
		l("ann.search_us", "us", "lower"),
		l("ann.scan_frac", "ratio", "lower"),
		l("ann.recall_at_c", "ratio", "higher"),
		// shard
		l("shard.partition_s", "s", "lower"),
		l("shard.produce_s", "s", "lower"),
		l("shard.produce_ooc_s", "s", "lower"),
		l("shard.replication", "ratio", "lower"),
		l("shard.recall_at_c", "ratio", "higher"),
	)
	// core: self time and F1 per matcher
	for _, k := range append(append([]string{}, denseKeys...), sparseKeys...) {
		out = append(out, l("core."+k+"_s", "s", "lower"))
	}
	for _, k := range append(append([]string{}, denseKeys...), sparseKeys...) {
		out = append(out, l("core."+k+".f1", "ratio", "higher"))
	}
	out = append(out,
		l("eval.evaluate_s", "s", "lower"),
		// snapshot
		l("snapshot.write_s", "s", "lower"),
		l("snapshot.bytes", "B", "lower"),
		l("snapshot.load_s", "s", "lower"),
		l("snapshot.open_mmap_s", "s", "lower"),
		l("snapshot.verify_mib_per_s", "MiB/s", "higher"),
		// plan
		l("plan.choose_us", "us", "lower"),
		l("plan.drift.exact", "ratio", "lower"),
		l("plan.drift.ann", "ratio", "lower"),
		l("plan.drift.quant", "ratio", "lower"),
		l("plan.drift.ann_quant", "ratio", "lower"),
		l("plan.drift.shard4", "ratio", "lower"),
		// server
		l("server.ready_s", "s", "lower"),
		l("server.handler_miss_us", "us", "lower"),
		l("server.handler_hit_us", "us", "lower"),
		l("server.http_overhead_us", "us", "lower"),
		l("server.cache_hit_ratio", "ratio", "higher"),
		l("server.mean_batch", "count", "higher"),
		l("server.coalesced_dup", "count", "higher"),
		l("server.gate_rejections", "count", "lower"),
		l("server.recall_at_10", "ratio", "higher"),
		l("server.served_quant", "count", "higher"),
		l("server.served_ann", "count", "lower"),
		l("server.served_exact", "count", "lower"),
		l("server.align_job_s.csls", "s", "lower"),
		l("server.align_job_s.rinf", "s", "lower"),
		l("server.align_job_s.hungarian", "s", "lower"),
		l("server.loaded_topk_p50_ms", "ms", "lower"),
		l("server.loaded_topk_p99_ms", "ms", "lower"),
		l("server.mixed_topk_p50_ms", "ms", "lower"),
		l("server.mixed_topk_p99_ms", "ms", "lower"),
		l("server.mixed_align_p50_s", "s", "lower"),
		// host ceilings, measured in the same run
		l("host.copy_gib_per_s", "GiB/s", "higher"),
		l("host.fma_gflops", "GFLOP/s", "higher"),
		l("host.nproc", "count", "higher"),
		l("host.gomaxprocs", "count", "higher"),
		// trace
		l("trace.overhead_pct", "%", "lower"),
		l("trace.coverage_pct", "%", "higher"),
	)
	return out
}
