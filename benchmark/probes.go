package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"entmatcher"
	"entmatcher/internal/ann"
	"entmatcher/internal/matrix"
	"entmatcher/internal/plan"
	"entmatcher/internal/quant"
	"entmatcher/internal/shard"
	"entmatcher/internal/sim"
	"entmatcher/internal/snapshot"
)

// This file holds the traced run's stand-alone probes: single calls into a
// layer's public functions, outside any timed region, for the per-layer
// numbers that cannot be read off a span around a whole Prepare or Match.

const mib = 1 << 20

// bestOf runs fn reps times and returns the shortest wall time: a rate probe
// wants the machine's capability, not its typical interference.
func bestOf(reps int, fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// llcBytes reads the last-level cache size from sysfs; 32 MiB when unknown.
func llcBytes() int64 {
	for _, idx := range []string{"index3", "index2"} {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + idx + "/size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n > 0 {
			return n * mult
		}
	}
	return 32 * mib
}

var sink float64

// hostProbes measures the reference ceilings in the same run as the kernels:
// copy bandwidth over arrays four times the last-level cache — capped at
// maxArrayBytes each, which a VM reporting its host's whole shared L3 reaches
// first — and the scalar float64 FMA issue rate of one goroutine (Go has no
// vector intrinsics, so the AVX2 peak is four lanes times this).
func hostProbes(m map[string]float64, maxArrayBytes int64) {
	n := int(min(4*llcBytes(), maxArrayBytes) / 8)
	src, dst := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	d := bestOf(3, func() { copy(dst, src) })
	// A copy reads n words and writes n words.
	m["host.copy_gib_per_s"] = float64(2*8*n) / float64(1<<30) / d.Seconds()
	sink += dst[n/2]

	const iters = 1 << 24
	d = bestOf(3, func() {
		a0, a1, a2, a3, a4, a5, a6, a7 := 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0
		x, y := 1.0000001, 1e-9
		for i := 0; i < iters; i++ {
			a0 = math.FMA(a0, x, y)
			a1 = math.FMA(a1, x, y)
			a2 = math.FMA(a2, x, y)
			a3 = math.FMA(a3, x, y)
			a4 = math.FMA(a4, x, y)
			a5 = math.FMA(a5, x, y)
			a6 = math.FMA(a6, x, y)
			a7 = math.FMA(a7, x, y)
		}
		sink += a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	})
	m["host.fma_gflops"] = float64(2*8*iters) / 1e9 / d.Seconds()
	m["host.nproc"] = float64(runtime.NumCPU())
	m["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
}

// kernelProbes times the two register-blocked scan kernels on a 16384 x 128
// corpus with one goroutine, so their rates can be read as a share of the
// host ceilings above.
func kernelProbes(m map[string]float64) {
	const rows, dim = 16384, 128
	corpus := make([][]float64, rows)
	flat := make([]float64, rows*dim)
	for i := range flat {
		flat[i] = float64(i%97) / 97
	}
	for i := range corpus {
		corpus[i] = flat[i*dim : (i+1)*dim]
	}
	out := make([]float64, rows)
	const queries = 48
	d := bestOf(3, func() {
		for q := 0; q < queries; q++ {
			matrix.DotBlockRows(corpus, corpus[q], out)
		}
	})
	sink += out[0]
	m["matrix.dot_block3_mpairs_per_s"] = float64(queries*rows) / 1e6 / d.Seconds()
	// Computed, not measured: a block of three corpus rows shares one query
	// row, so a pair reads its own row and a third of the query.
	m["matrix.dot_block3_bytes_per_pair"] = 8 * dim * (1 + 1.0/3)

	codes := make([]int8, rows*dim)
	for i := range codes {
		codes[i] = int8(i%251 - 125)
	}
	var acc [4]int32
	var isink int32
	d = bestOf(3, func() {
		for q := 0; q+4 <= queries; q += 4 {
			q0, q1, q2, q3 := codes[q*dim:(q+1)*dim], codes[(q+1)*dim:(q+2)*dim], codes[(q+2)*dim:(q+3)*dim], codes[(q+3)*dim:(q+4)*dim]
			for r := 0; r < rows; r++ {
				quant.DotI8Block4(q0, q1, q2, q3, codes[r*dim:(r+1)*dim], &acc)
				isink += acc[0]
			}
		}
	})
	sink += float64(isink)
	m["quant.dot_i8_block4_mpairs_per_s"] = float64(queries*rows) / 1e6 / d.Seconds()
}

// snapshotProbes times the snapshot layer's entry points on the file the
// workload's set-up wrote.
func snapshotProbes(m map[string]float64, chk *checker, path string) {
	fi, err := os.Stat(path)
	if !chk.ok(err == nil, "snapshot probe: %v", err) {
		return
	}
	var snap *snapshot.Snapshot
	d := bestOf(1, func() { snap, err = snapshot.Load(path) })
	if !chk.ok(err == nil, "snapshot.Load: %v", err) {
		return
	}
	m["snapshot.load_s"] = d.Seconds()
	d = bestOf(1, func() {
		var r *snapshot.Reader
		if r, err = snapshot.OpenReader(path); err != nil {
			return
		}
		if _, err = r.MapTable(snapshot.SectionSrcTable); err == nil {
			_, err = r.MapTable(snapshot.SectionTgtTable)
		}
		r.Close()
	})
	if chk.ok(err == nil, "snapshot.OpenReader+MapTable: %v", err) {
		m["snapshot.open_mmap_s"] = d.Seconds()
	}
	d = bestOf(1, func() { err = snapshot.VerifyFile(path, snapshot.DefaultMaxBytes) })
	if chk.ok(err == nil, "snapshot.VerifyFile: %v", err) {
		m["snapshot.verify_mib_per_s"] = float64(fi.Size()) / mib / d.Seconds()
	}
	rewrite := path + ".rewrite"
	d = bestOf(1, func() { err = snap.Write(rewrite) })
	os.Remove(rewrite)
	if chk.ok(err == nil, "snapshot.Write: %v", err) {
		m["snapshot.write_s"] = d.Seconds()
	}
}

type noopConsumer struct{}

func (noopConsumer) ConsumeTile(int, int, *matrix.Dense) {}

// sparseProbes measures the scan-side layers on the exact stream of the
// sparse workloads' tables: the bare tile pass, the candidate-graph build on
// top of it, SQ8 encoding, IVF training and the shard partition.
func sparseProbes(m map[string]float64, chk *checker, stream *sim.Stream) {
	ctx := context.Background()
	rows, cols := stream.Dims()
	var err error
	d := bestOf(1, func() { err = stream.StreamTiles(ctx, noopConsumer{}) })
	if chk.ok(err == nil, "sim.Stream.StreamTiles: %v", err) {
		m["sim.stream_s"] = d.Seconds()
		m["sim.stream_mpairs_per_s"] = float64(rows) * float64(cols) / 1e6 / d.Seconds()
	}
	var fwd, rev *matrix.CandGraph
	d = bestOf(1, func() { fwd, rev, err = matrix.BuildCandGraphs(ctx, stream, candBudget, candBudget) })
	if chk.ok(err == nil, "matrix.BuildCandGraphs: %v", err) {
		m["matrix.candgraph_s"] = d.Seconds()
		m["matrix.candgraph_edges"] = float64(fwd.NNZ() + rev.NNZ())
	}

	sTab, tTab := stream.PreparedTables()
	var srcQ, tgtQ *quant.Table
	d = bestOf(1, func() {
		if srcQ, err = quant.Encode(ctx, sTab); err == nil {
			tgtQ, err = quant.Encode(ctx, tTab)
		}
	})
	if chk.ok(err == nil, "quant.Encode: %v", err) {
		m["quant.encode_s"] = d.Seconds()
		m["quant.table_ratio"] = float64(sTab.SizeBytes()+tTab.SizeBytes()) / float64(srcQ.SizeBytes()+tgtQ.SizeBytes())
	}

	annSrc, err := ann.NewSource(stream, sTab, tTab, ann.Config{Seed: 1})
	if chk.ok(err == nil, "ann.NewSource: %v", err) {
		d = bestOf(1, func() { err = annSrc.BuildIndexes(ctx, true) })
		if chk.ok(err == nil, "ann.Source.BuildIndexes: %v", err) {
			m["ann.build_s"] = d.Seconds()
			if ivf, err := annSrc.ForwardIndex(ctx); err == nil {
				// ann.Config's documented default: nprobe = max(1, clusters/16).
				k := ivf.Clusters()
				m["ann.scan_frac"] = float64(max(1, k/16)) / float64(k)
			}
		}
	}

	var asg *shard.Assignment
	d = bestOf(1, func() { asg, err = shard.Partition(ctx, sTab, tTab, shard.Config{Shards: 4}) })
	if chk.ok(err == nil, "shard.Partition: %v", err) {
		m["shard.partition_s"] = d.Seconds()
		assigned := 0
		for _, s := range asg.Src {
			assigned += len(s)
		}
		m["shard.replication"] = float64(assigned) / float64(rows)
	}
}

// residentStream returns the plain exact engine of the first variant whose
// tables live on the heap (the out-of-core variant has none to hand out).
func residentStream(variants []*preparedVariant) *sim.Stream {
	for _, v := range variants {
		if v.run.Stream != nil && !v.run.Stream.OutOfCore() {
			return v.run.Stream
		}
	}
	return nil
}

// planEngines maps the benchmark's engine variants to the planner's engines.
var planEngines = map[string]plan.Engine{
	"exact":     plan.EngineSparse,
	"ann":       plan.EngineANN,
	"quant":     plan.EngineQuant,
	"ann_quant": plan.EngineANNQuant,
	"shard4":    plan.EngineShard,
}

// planProbes times Calibration.Choose on the workload's shape and, for each
// engine variant the pass ran, divides the planner's wall estimate (prepare +
// one representative matcher) by what prepare + RInfSparse measured.
func planProbes(m map[string]float64, chk *checker, stream *sim.Stream, variants []*preparedVariant) {
	cal, err := entmatcher.DefaultCalibration()
	if !chk.ok(err == nil, "planner calibration: %v", err) {
		return
	}
	rows, cols := stream.Dims()
	sTab, _ := stream.PreparedTables()
	w := plan.Workload{SrcRows: rows, TgtRows: cols, Dim: sTab.Cols(), CandidateBudget: candBudget}
	var p *plan.Plan
	d := bestOf(5, func() { p, err = cal.Choose(w) })
	if !chk.ok(err == nil, "plan.Choose: %v", err) {
		return
	}
	m["plan.choose_us"] = float64(d) / 1e3
	est := map[plan.Engine]int64{p.Chosen.Engine: p.Chosen.EstWallNS}
	for _, c := range p.Rejected {
		if _, ok := est[c.Engine]; !ok {
			est[c.Engine] = c.EstWallNS
		}
	}
	for _, v := range variants {
		engine, ok := planEngines[v.spec.name]
		measured := v.prepare + v.firstMatch
		if ok && est[engine] > 0 && measured > 0 {
			m["plan.drift."+v.spec.name] = float64(est[engine]) / float64(measured)
		}
	}
}

// denseProbes times sim.Matrix on the task's selected rows, alone.
func denseProbes(m map[string]float64, chk *checker, last *passResult) {
	if len(last.variants) == 0 {
		return
	}
	task := last.variants[0].run.Task
	src := last.emb.Source.SelectRows(task.SourceIDs)
	tgt := last.emb.Target.SelectRows(task.TargetIDs)
	var err error
	d := bestOf(1, func() { _, err = entmatcher.SimilarityMatrix(src, tgt, entmatcher.MetricCosine) })
	if chk.ok(err == nil, "sim.Matrix: %v", err) {
		m["sim.matrix_s"] = d.Seconds()
		m["sim.matrix_gflops"] = 2 * float64(src.Rows()) * float64(tgt.Rows()) * float64(src.Cols()) / 1e9 / d.Seconds()
	}
}

// batchPerLayer turns the traced passes and the probes into the per-layer
// metrics of a batch workload.
func batchPerLayer(cfg childConfig, res *childResult, chk *checker, out *batchOutcome, rec *recorder) {
	m := res.Metrics
	ts := rec.stats()
	last := out.last
	dur := func(i int32) time.Duration { return ts.spans[i].dur() }
	prefix := func(p string) func(string) bool {
		return func(n string) bool { return strings.HasPrefix(n, p) }
	}

	m["kg.load_s"] = ts.total("kg.load")
	m["embed.load_s"] = ts.total("embed.load")
	if m["embed.load_s"] > 0 {
		var embBytes int64
		for _, f := range []string{srcVecFile, tgtVecFile} {
			if fi, err := os.Stat(filepath.Join(cfg.Dir, f)); err == nil {
				embBytes += fi.Size()
			}
		}
		m["embed.load_mib_per_s"] = float64(embBytes) / mib / m["embed.load_s"]
	}
	m["pipeline.prepare_s"] = ts.perRun(prefix("pipeline.prepare"), dur)
	for _, v := range indexedVariants {
		m["pipeline.prepare_s."+v] = ts.total("pipeline.prepare." + v)
	}
	m["pipeline.match_s"] = ts.perRun(prefix("core."), dur)
	m["eval.evaluate_s"] = ts.total("eval.evaluate")
	for metric, spanName := range map[string]string{
		"matrix.produce_s":    "matrix.produce",
		"ann.produce_s":       "ann.produce",
		"quant.produce_s":     "quant.produce",
		"shard.produce_s":     "shard.produce",
		"shard.produce_ooc_s": "shard.produce_ooc",
	} {
		m[metric] = ts.total(spanName)
	}

	// core.<key>_s: the matcher's own time, Match wall minus the production
	// spans under it, averaged over the variants that ran it.
	runsOf := map[string]int{}
	f1Of := map[string][]float64{}
	for _, op := range last.ops {
		runsOf[op.key]++
		f1Of[op.key] = append(f1Of[op.key], op.f1)
	}
	for key, n := range runsOf {
		m["core."+key+"_s"] = ts.selfTime("core."+key) / float64(n)
		m["core."+key+".f1"] = mean(f1Of[key])
	}

	var passes, matcherRuns int
	for _, p := range out.traced {
		passes += p.streamPasses
		matcherRuns += len(p.ops)
	}
	if matcherRuns > 0 {
		m["sim.stream_passes"] = float64(passes) / float64(matcherRuns)
	}

	if cfg.Workload == wlPaperDense {
		denseProbes(m, chk, last)
	} else if stream := residentStream(last.variants); stream != nil {
		sparseProbes(m, chk, stream)
		planProbes(m, chk, stream, last.variants)
	}
	if cfg.Workload == wlSparseIndexed {
		snapshotProbes(m, chk, filepath.Join(cfg.Dir, plainSnap))
		m["ann.recall_at_c"] = chk.recall["ann"]
		m["quant.recall_at_c"] = chk.recall["quant"]
		m["shard.recall_at_c"] = chk.recall["shard4"]
	}
	kernelProbes(m)
	hostProbes(m, cfg.copyArrayBytes())

	m["trace.coverage_pct"] = ts.coveragePct("pass")
	if u := median(passWalls(out.untraced)); u > 0 {
		m["trace.overhead_pct"] = 100 * (median(passWalls(out.traced))/u - 1)
	}
	if cfg.Scale == "ref" {
		chk.ok(m["trace.coverage_pct"] >= 95, "trace covers %.1f%% of the timed region, want >= 95%%", m["trace.coverage_pct"])
	}
}
