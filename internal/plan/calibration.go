// Calibration: the planner's per-unit cost coefficients. There is one table,
// Defaults, and every planner in the tree — the pipeline's Auto mode,
// entserver's startup plan, the CLIs, the benchmark harness's plan.drift.*
// probes — reads it.
package plan

// Calibration holds the per-unit cost coefficients. All *NS fields are
// nanoseconds per modeled unit of work on the calibrated host.
type Calibration struct {
	// DenseSimNS: per scanned cell·dim, dense similarity-matrix computation
	// plus a fused selection pass.
	DenseSimNS float64
	// DenseMatchNS: per matrix cell, one representative collective matcher
	// running on the materialized dense matrix (the median over RInf,
	// Sinkhorn, Hungarian and SMat — all superlinear per cell, which is
	// exactly why dense stops scaling).
	DenseMatchNS float64
	// StreamPassNS: per cell·dim, one fused streaming pass (tile production
	// and consumption).
	StreamPassNS float64
	// SparseBuildNS: per cell·dim, the exhaustive one-pass top-C candidate
	// graph build.
	SparseBuildNS float64
	// SparseEdgeNS: per retained candidate edge, a collective sparse matcher
	// pass (median slope across the matchers' C sweeps).
	SparseEdgeNS float64
	// ANNTrainNS: per corpusRow·cluster·dim, k-means quantizer training.
	ANNTrainNS float64
	// ANNCentroidNS: per query·cluster·dim, coarse cell ranking plus the
	// per-query fixed costs of an IVF graph build (the nprobe sweep's
	// intercept).
	ANNCentroidNS float64
	// ANNScanNS: per probed cell·dim, the IVF inverted-list scan (the nprobe
	// sweep's slope).
	ANNScanNS float64
	// QuantScanRatio and QuantRerankMult model the SQ8 scan relative to the
	// float64 scan of the same geometry: time(quant)/time(float) ≈
	// QuantScanRatio + QuantRerankMult·(pool/targets). The ratio form keeps
	// quant-vs-float comparisons consistent even when absolute coefficients
	// come from a different host.
	QuantScanRatio  float64
	QuantRerankMult float64
	// QuantEncodeNS: per table value, SQ8 encoding.
	QuantEncodeNS float64
	// BlockedScanSpeedup and BlockedI8Speedup: single-thread throughput
	// ratio of the per-pair scan to the register-blocked multi-query scan,
	// for the float64 and int8 kernels respectively. The scan coefficients
	// above were measured when every scan path streamed the corpus once per
	// query, so they model the per-pair kernels; the planner divides each
	// blocked scan term by the matching ratio to track the current kernels.
	BlockedScanSpeedup float64
	BlockedI8Speedup   float64
	// ShardCalibMult: measured/modeled wall ratio of the sharded engine,
	// taken end to end from the gated 1M×1M out-of-core run. It absorbs
	// everything the component model (shardWallNS) misses at that scale —
	// slab I/O, per-shard gathers, matcher passes over replicated edges.
	ShardCalibMult float64
	// Recall maps probed-cluster fraction (nprobe/K) to candidate recall,
	// measured on the paper's structural embeddings — the conservative
	// geometry (clustered corpora saturate far earlier).
	Recall RecallCurve
}

// Defaults returns the one calibration in the tree. The numbers were measured
// at GOMAXPROCS=1 by the engine sweeps of PRs 2–10: the streaming, sparse and
// ANN coefficients on a 2.70 GHz Xeon (the recall curve is the DWY100K
// structural sweep, nprobe {1,4,16,64,126} of K=126 clusters); the quant
// coefficients, the blocked-kernel ratios and the shard multiplier (from the
// gated 1M×1M run) on a 2.10 GHz one. They are kept at full precision so
// plans stay bit-identical to the ones those measurements produced. Several
// are stale — SparseBuildNS and DenseMatchNS are now several-fold too high —
// and ROADMAP item 5 replaces the whole table from benchmark/ harness output.
func Defaults() Calibration {
	return Calibration{
		DenseSimNS:         1.751483008178711,
		DenseMatchNS:       442.3554967921223,
		StreamPassNS:       0.8629223161621093,
		SparseBuildNS:      0.18789377005109043,
		SparseEdgeNS:       579.2480995679111,
		ANNTrainNS:         1.0474387122430628,
		ANNCentroidNS:      1.0490662904178147,
		ANNScanNS:          0.3151509174357634,
		QuantScanRatio:     0.4853515208297059,
		QuantRerankMult:    29.44102576092479,
		QuantEncodeNS:      8.433553218841553,
		BlockedScanSpeedup: 2.3957574622610616,
		BlockedI8Speedup:   1.5258004186093919,
		ShardCalibMult:     7.197867409632179,
		Recall: RecallCurve{Points: []RecallPoint{
			{0.007936507936507936, 0.2679586926634171},
			{0.031746031746031744, 0.4230633280214973},
			{0.12698412698412698, 0.6457835348706412},
			{0.5079365079365079, 0.9231873359580053},
			{1, 1},
		}},
	}
}

// RecallPoint is one fitted (probed fraction, candidate recall) sample.
type RecallPoint struct {
	Frac   float64 `json:"frac"`
	Recall float64 `json:"recall"`
}

// RecallCurve is a piecewise-linear recall-vs-probed-fraction model,
// monotone non-decreasing with an implicit (1, 1) endpoint (probing every
// cell is the exhaustive scan).
type RecallCurve struct {
	Points []RecallPoint `json:"points"`
}

// Eval returns the fitted recall at probed fraction f (clamped to [0, 1]).
func (rc RecallCurve) Eval(f float64) float64 {
	pts := rc.Points
	if len(pts) == 0 {
		if f >= 1 {
			return 1
		}
		return 0
	}
	if f <= pts[0].Frac {
		// Below the first sample, scale down linearly from it: probing a
		// vanishing fraction recalls a vanishing candidate set.
		return pts[0].Recall * f / pts[0].Frac
	}
	for i := 1; i < len(pts); i++ {
		if f <= pts[i].Frac {
			a, b := pts[i-1], pts[i]
			t := (f - a.Frac) / (b.Frac - a.Frac)
			return a.Recall + t*(b.Recall-a.Recall)
		}
	}
	return 1
}

// Invert returns the smallest probed fraction whose fitted recall meets
// target, and whether the curve reaches it below full coverage. A target of
// 1 (exact) always answers (1, true): probe everything.
func (rc RecallCurve) Invert(target float64) (float64, bool) {
	if target >= 1 {
		return 1, true
	}
	pts := rc.Points
	if len(pts) == 0 {
		return 1, true
	}
	if target <= 0 {
		return 0, true
	}
	if pts[0].Recall >= target {
		return pts[0].Frac * target / pts[0].Recall, true
	}
	prev := pts[0]
	for _, pt := range pts[1:] {
		if pt.Recall >= target {
			t := (target - prev.Recall) / (pt.Recall - prev.Recall)
			return prev.Frac + t*(pt.Frac-prev.Frac), true
		}
		prev = pt
	}
	return 1, true // curve tops out at the implicit exact endpoint
}
