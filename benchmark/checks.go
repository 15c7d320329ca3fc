package main

import (
	"context"
	"fmt"

	"entmatcher"
	"entmatcher/internal/matrix"
)

// checker counts answer checks as operations: each check is attempted once
// and a failed one is a failed operation, so a wrong answer shows up in the
// result line the same way an error does.
type checker struct {
	res *childResult
	// recall holds each sparse_indexed variant's recall@C against the exact
	// graph, for the traced run's *.recall_at_c metrics.
	recall map[string]float64
}

func (c *checker) ok(cond bool, format string, args ...any) bool {
	c.res.Attempted++
	if !cond {
		c.res.failf("check: "+format, args...)
	}
	return cond
}

// Recall floors of the approximate engines at their default knobs, set well
// under what the reference sizes measure (README.md lists the measured
// values). The real guard is that recall repeats exactly for a fixed seed and
// that f1_mean has a bound; the floors catch an engine that stopped working.
const (
	annRecallFloor   = 0.25
	shardRecallFloor = 0.55
)

// checkResult verifies one matcher result's shape: at most one pair per
// source row, ids in range, and for the assignment matchers a one-to-one
// matching.
func checkResult(op opSample, rows, cols int) error {
	pairs := op.result.Pairs
	if len(pairs) > rows {
		return fmt.Errorf("%d pairs for %d rows", len(pairs), rows)
	}
	oneToOne := op.key == "hungarian" || op.key == "smat" || op.key == "hungarian_sparse" || op.key == "smat_sparse"
	seenSrc := make([]bool, rows)
	seenTgt := make([]bool, cols)
	for _, p := range pairs {
		if p.Source < 0 || p.Source >= rows || p.Target < 0 || p.Target >= cols {
			return fmt.Errorf("pair (%d,%d) outside %dx%d", p.Source, p.Target, rows, cols)
		}
		if seenSrc[p.Source] {
			return fmt.Errorf("source row %d matched twice", p.Source)
		}
		seenSrc[p.Source] = true
		if oneToOne && seenTgt[p.Target] {
			return fmt.Errorf("target column %d matched twice by a one-to-one matcher", p.Target)
		}
		seenTgt[p.Target] = true
	}
	return nil
}

// checkBatch runs the batch workloads' answer checks on the last pass, after
// the clock has stopped.
func checkBatch(cfg childConfig, chk *checker, out *batchOutcome, all []*passResult) {
	last := out.last
	f1 := map[string]float64{}
	for _, v := range last.variants {
		rows, cols := v.run.Dims()
		for _, op := range last.ops {
			if op.variant != v.spec.name {
				continue
			}
			err := checkResult(op, rows, cols)
			chk.ok(err == nil, "%s/%s: %v", op.variant, op.key, err)
			f1[op.variant+"/"+op.key] = op.f1
		}
	}
	// F1 is a function of the inputs alone: every pass must score the same.
	same := true
	for _, p := range all {
		for _, op := range p.ops {
			if want, ok := f1[op.variant+"/"+op.key]; ok && want != op.f1 {
				same = false
			}
		}
	}
	chk.ok(same, "F1 differs between passes over the same inputs")

	switch cfg.Workload {
	case wlPaperDense:
		chk.ok(f1["dense/hungarian"] >= f1["dense/dinf"], "F1(Hun.) %.4f < F1(DInf) %.4f", f1["dense/hungarian"], f1["dense/dinf"])
	case wlSparseIndexed:
		checkIndexedGraphs(chk, last, cfg.Scale == "ref")
	}
}

// checkIndexedGraphs rebuilds each engine variant's forward candidate graph
// once and compares it with the exact top-C graph of the same tables: the
// three bit-identity contracts (quant = exact, ann_quant = ann, shard4_ooc =
// shard4) and, at the reference sizes the floors were set for, the sanity
// floors of the approximate engines.
func checkIndexedGraphs(chk *checker, last *passResult, floors bool) {
	ctx := context.Background()
	base, err := entmatcher.NewPipeline(sparseBase()).PrepareWithEmbeddings(last.dataset, last.emb)
	if !chk.ok(err == nil, "reference prepare: %v", err) {
		return
	}
	ref, err := matrix.BuildCandGraph(ctx, base.Stream, candBudget)
	if !chk.ok(err == nil, "reference graph: %v", err) {
		return
	}
	graphs := map[string]*matrix.CandGraph{}
	chk.recall = map[string]float64{}
	for _, v := range last.variants {
		g, err := matrix.BuildCandGraph(ctx, v.src, candBudget)
		if chk.ok(err == nil, "%s: forward graph: %v", v.spec.name, err) {
			graphs[v.spec.name] = g
			chk.recall[v.spec.name] = graphRecall(ref, g)
		}
	}
	identical := func(a, b string, ga, gb *matrix.CandGraph) {
		if ga != nil && gb != nil {
			chk.ok(equalGraphs(ga, gb), "%s graph differs from %s (bit-identity contract)", a, b)
		}
	}
	identical("quant", "exact", graphs["quant"], ref)
	identical("ann_quant", "ann", graphs["ann_quant"], graphs["ann"])
	identical("shard4_ooc", "shard4", graphs["shard4_ooc"], graphs["shard4"])
	if _, ok := graphs["ann"]; ok && floors {
		chk.ok(chk.recall["ann"] >= annRecallFloor, "ann recall@%d %.3f under floor %.2f", candBudget, chk.recall["ann"], annRecallFloor)
	}
	if _, ok := graphs["shard4"]; ok && floors {
		chk.ok(chk.recall["shard4"] >= shardRecallFloor, "shard4 recall@%d %.3f under floor %.2f", candBudget, chk.recall["shard4"], shardRecallFloor)
	}
}

// equalGraphs reports whether two candidate graphs hold the same edges with
// the same score bits in the same order.
func equalGraphs(a, b *matrix.CandGraph) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		ac, as := a.Row(i)
		bc, bs := b.Row(i)
		if len(ac) != len(bc) {
			return false
		}
		for j := range ac {
			if ac[j] != bc[j] || as[j] != bs[j] {
				return false
			}
		}
	}
	return true
}

// graphRecall is the share of ref's edges that g also holds.
func graphRecall(ref, g *matrix.CandGraph) float64 {
	hit, total := 0, 0
	seen := map[int32]bool{}
	for i := 0; i < ref.Rows(); i++ {
		rc, _ := ref.Row(i)
		gc, _ := g.Row(i)
		clear(seen)
		for _, c := range gc {
			seen[c] = true
		}
		for _, c := range rc {
			total++
			if seen[c] {
				hit++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}
