package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"entmatcher"
	"entmatcher/internal/matrix"
)

// matcherSpec names one matcher of a batch workload; key is the suffix it
// contributes to core.<key>_s and core.<key>.f1.
type matcherSpec struct {
	key string
	new func() entmatcher.Matcher
}

// variantSpec is one engine configuration of a batch workload: a fresh
// Prepare followed by its matchers.
type variantSpec struct {
	name string
	// cfg builds the pipeline configuration; one that names a LoadSnapshot
	// prepares from it instead of from the loaded embedding tables.
	cfg      func(dir string) entmatcher.PipelineConfig
	matchers []matcherSpec
	// prepareSpan and produceSpan name the traced run's spans around Prepare
	// and around candidate-graph production inside the matchers.
	prepareSpan, produceSpan string
}

func denseMatchers() []matcherSpec {
	all := entmatcher.AllMatchers()
	out := make([]matcherSpec, len(all))
	for i := range all {
		out[i] = matcherSpec{denseKeys[i], func() entmatcher.Matcher { return entmatcher.AllMatchers()[i] }}
	}
	return out
}

var sparseMatchers = map[string]func() entmatcher.Matcher{
	"rinf_sparse":      func() entmatcher.Matcher { return entmatcher.NewRInfSparse(candBudget) },
	"csls_sparse":      func() entmatcher.Matcher { return entmatcher.NewCSLSSparse(candBudget, 1) },
	"hungarian_sparse": func() entmatcher.Matcher { return entmatcher.NewHungarianSparse(candBudget) },
	"smat_sparse":      func() entmatcher.Matcher { return entmatcher.NewSMatSparse(candBudget) },
	"sinkhorn_sparse": func() entmatcher.Matcher {
		return entmatcher.NewSinkhornSparse(candBudget, entmatcher.DefaultSinkhornIterations)
	},
}

func pickSparse(keys ...string) []matcherSpec {
	out := make([]matcherSpec, len(keys))
	for i, k := range keys {
		out[i] = matcherSpec{k, sparseMatchers[k]}
	}
	return out
}

// batchVariants returns the engine variants of a batch workload in run order.
func batchVariants(workload string) []variantSpec {
	switch workload {
	case wlPaperDense:
		return []variantSpec{{
			name:        "dense",
			cfg:         func(string) entmatcher.PipelineConfig { return entmatcher.PipelineConfig{} },
			matchers:    denseMatchers(),
			prepareSpan: "pipeline.prepare",
		}}
	case wlSparseExact:
		return []variantSpec{{
			name:        "exact",
			cfg:         func(string) entmatcher.PipelineConfig { return sparseBase() },
			matchers:    pickSparse(sparseKeys...),
			prepareSpan: "pipeline.prepare", produceSpan: "matrix.produce",
		}}
	case wlSparseIndexed:
		// The three producer entry points: BuildCandGraphs (RInf),
		// BuildCandGraphs with the transpose fallback (Hun.), and
		// BuildCandGraphWithColMeans (CSLS).
		three := pickSparse("rinf_sparse", "hungarian_sparse", "csls_sparse")
		mk := func(name, produce string, edit func(c *entmatcher.PipelineConfig, dir string)) variantSpec {
			return variantSpec{
				name: name, matchers: three,
				prepareSpan: "pipeline.prepare." + name, produceSpan: produce,
				cfg: func(dir string) entmatcher.PipelineConfig {
					c := sparseBase()
					edit(&c, dir)
					return c
				},
			}
		}
		return []variantSpec{
			mk("ann", "ann.produce", func(c *entmatcher.PipelineConfig, _ string) {
				c.ANN = &entmatcher.ANNConfig{Seed: 1}
			}),
			mk("quant", "quant.produce", func(c *entmatcher.PipelineConfig, _ string) {
				c.Quant = &entmatcher.QuantConfig{}
			}),
			mk("ann_quant", "ann.produce_quant", func(c *entmatcher.PipelineConfig, _ string) {
				c.ANN = &entmatcher.ANNConfig{Seed: 1}
				c.Quant = &entmatcher.QuantConfig{}
			}),
			mk("shard4", "shard.produce", func(c *entmatcher.PipelineConfig, _ string) {
				c.Shards = 4
			}),
			mk("shard4_ooc", "shard.produce_ooc", func(c *entmatcher.PipelineConfig, dir string) {
				c.Shards = 4
				c.OutOfCore = true
				c.LoadSnapshot = filepath.Join(dir, plainSnap)
			}),
		}
	}
	return nil
}

// opSample is one Run.Match call.
type opSample struct {
	variant, key string
	dur          time.Duration
	f1           float64
	result       *entmatcher.MatchResult
}

// preparedVariant is what a pass keeps of one variant for the answer checks.
type preparedVariant struct {
	spec variantSpec
	run  *entmatcher.Run
	// src is the run's real tile source (nil on dense runs), before the
	// traced pass wraps it.
	src    matrix.TileSource
	traced *tracedSource
	// prepare and firstMatch feed plan.drift.*.
	prepare, firstMatch time.Duration
}

// passResult is one pass over a batch workload's timed region.
type passResult struct {
	wall      time.Duration
	ops       []opSample
	variants  []*preparedVariant
	dataset   *entmatcher.Dataset
	emb       *entmatcher.Embeddings
	attempted int
	failures  []string
	// streamPasses is the traced pass's count of full tile passes over the
	// scores, summed over its runs.
	streamPasses int
}

func (p *passResult) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// close releases the pass's runs (the out-of-core variant holds a mapping).
func (p *passResult) close() {
	for _, v := range p.variants {
		v.run.Close()
	}
}

// batchPass runs the workload's timed region once: load the dataset and the
// embedding files, then per engine variant a fresh Prepare and its matchers
// (Run.Match scores each against gold). With a recorder it is the traced
// pass: a span around each call into a layer, and the tracing tile source
// installed on every streaming run.
func batchPass(workload, dir string, variants []variantSpec, rec *recorder, id int) *passResult {
	p := &passResult{}
	rec.setRun(id)
	root := rec.begin("pass")
	t0 := time.Now()
	defer func() {
		p.wall = time.Since(t0)
		rec.end(root)
		for _, v := range p.variants {
			if v.traced != nil {
				p.streamPasses += v.traced.passes
			}
		}
	}()

	_, err := rec.time("kg.load", func() (err error) {
		p.dataset, err = entmatcher.LoadDataset(dir, workload)
		return err
	})
	if err != nil {
		p.fail("load dataset: %v", err)
		return p
	}
	_, err = rec.time("embed.load", func() (err error) {
		p.emb, err = entmatcher.LoadEmbeddings(filepath.Join(dir, srcVecFile), filepath.Join(dir, tgtVecFile), p.dataset)
		return err
	})
	if err != nil {
		p.fail("load embeddings: %v", err)
		return p
	}

	for _, vs := range variants {
		v := &preparedVariant{spec: vs}
		p.attempted++
		cfg := vs.cfg(dir)
		pipe := entmatcher.NewPipeline(cfg)
		v.prepare, err = rec.time(vs.prepareSpan, func() (err error) {
			if cfg.LoadSnapshot != "" {
				v.run, err = pipe.Prepare(p.dataset)
			} else {
				v.run, err = pipe.PrepareWithEmbeddings(p.dataset, p.emb)
			}
			return err
		})
		if err != nil {
			p.fail("%s: prepare: %v", vs.name, err)
			continue
		}
		p.variants = append(p.variants, v)
		v.src = v.run.Ctx.Stream
		if rec != nil && v.src != nil {
			v.traced = &tracedSource{inner: v.src, rec: rec, span: vs.produceSpan}
			v.run.Ctx.Stream = v.traced
		}
		for i, ms := range vs.matchers {
			p.attempted++
			var res *entmatcher.MatchResult
			var met entmatcher.Metrics
			d, err := rec.time("core."+ms.key, func() (err error) {
				res, met, err = v.run.Match(ms.new())
				return err
			})
			if err != nil {
				p.fail("%s/%s: match: %v", vs.name, ms.key, err)
				continue
			}
			if i == 0 {
				v.firstMatch = d
			}
			p.ops = append(p.ops, opSample{variant: vs.name, key: ms.key, dur: d, f1: met.F1, result: res})
			if rec != nil {
				// Run.Match has already scored the result; scoring it again
				// under its own span shows eval's share of the region.
				rec.time("eval.evaluate", func() error {
					v.run.Task.Evaluate(res)
					return nil
				})
			}
		}
	}
	return p
}

// batchOutcome is what the passes of one invocation add up to.
type batchOutcome struct {
	untraced, traced []*passResult
	last             *passResult
}

// runBatchPasses repeats the timed region for the measuring time. Untraced
// invocations run plain passes; traced ones alternate plain and traced passes
// so the trace's overhead is measured inside the same run. Every pass but the
// last is released before the next starts.
func runBatchPasses(cfg childConfig, variants []variantSpec, rec *recorder) *batchOutcome {
	out := &batchOutcome{}
	start := time.Now()
	for i := 0; ; i++ {
		traced := rec != nil && i%2 == 1
		var r *recorder
		if traced {
			r = rec
		}
		if out.last != nil {
			out.last.close()
			out.last.variants, out.last.dataset, out.last.emb = nil, nil, nil
			for j := range out.last.ops {
				out.last.ops[j].result = nil
			}
			// Collect the finished pass outside the clock, so each pass starts
			// from the heap a fresh process would have.
			runtime.GC()
		}
		p := batchPass(cfg.Workload, cfg.Dir, variants, r, i)
		out.last = p
		if traced {
			out.traced = append(out.traced, p)
		} else {
			out.untraced = append(out.untraced, p)
		}
		enough := len(out.untraced) >= 1 && (rec == nil || len(out.traced) >= 1)
		if enough && time.Since(start) >= cfg.measure() {
			return out
		}
	}
}

func passWalls(ps []*passResult) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

// runBatch is the child-side body of the three batch workloads.
func runBatch(cfg childConfig) *childResult {
	res := newChildResult()
	variants := batchVariants(cfg.Workload)
	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	out := runBatchPasses(cfg, variants, rec)
	defer out.last.close()
	fmt.Fprintf(os.Stderr, "%s: pass walls (s): untraced %.3f traced %.3f\n", cfg.Workload, passWalls(out.untraced), passWalls(out.traced))

	all := append(append([]*passResult{}, out.untraced...), out.traced...)
	for _, p := range all {
		res.Attempted += p.attempted
		for _, f := range p.failures {
			res.failf("%s", f)
		}
	}
	chk := &checker{res: res}
	checkBatch(cfg, chk, out, all)

	if !cfg.Trace {
		batchEndToEnd(res, out.untraced)
		return res
	}
	batchPerLayer(cfg, res, chk, out, rec)
	if err := rec.write(cfg.tracePath(), cfg.Workload, cfg.Seed); err != nil {
		res.failf("write trace: %v", err)
	}
	return res
}

// batchEndToEnd turns the untraced passes into the end-to-end metrics. An
// operation is one Run.Match call; see README.md for the definitions.
func batchEndToEnd(res *childResult, passes []*passResult) {
	bySlot := map[string][]float64{}
	for _, p := range passes {
		for _, op := range p.ops {
			slot := op.variant + "/" + op.key
			bySlot[slot] = append(bySlot[slot], op.dur.Seconds()*1e3)
		}
	}
	last := passes[len(passes)-1]
	var f1s []float64
	for _, op := range last.ops {
		f1s = append(f1s, op.f1)
	}
	// The matchers' costs span two orders of magnitude, so a pooled median
	// would sit on whichever matcher happens to be in the middle. The typical
	// latency is the geometric mean of the per-matcher medians (every matcher
	// weighs the same, relatively), the tail is the slowest matcher's median.
	logSum, tail := 0.0, 0.0
	for _, v := range bySlot {
		m := median(v)
		logSum += math.Log(m)
		tail = max(tail, m)
	}
	align := median(passWalls(passes))
	res.Metrics["align_s"] = align
	res.Metrics["f1_mean"] = mean(f1s)
	if align > 0 && len(bySlot) > 0 {
		res.Metrics["op_per_s"] = float64(len(last.ops)) / align
		res.Metrics["op_typical_ms"] = math.Exp(logSum / float64(len(bySlot)))
	}
	res.Metrics["op_tail_ms"] = tail
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
