// Package plan is the cost-based engine planner: given a workload shape
// (source rows, target rows, dimensionality), a peak-memory budget, and a
// candidate-recall target, it estimates wall time and peak working bytes for
// every engine the pipeline can run — dense matrix, tiled streaming, sparse
// top-C exhaustive, IVF+sparse, and the SQ8-quantized variants — and returns
// the cheapest feasible plan together with a machine-readable explanation of
// why every other plan lost (infeasible memory, recall below target, slower
// estimate, capability fallback).
//
// The cost model is a handful of per-unit coefficients (ns per scanned
// cell·dim, ns per retained candidate edge, bytes per graph edge, ...)
// held in one constant table, Defaults (calibration.go), bridged to the
// current register-blocked scan kernels by two throughput ratios and
// drift-corrected for the sharded engine by one end-to-end multiplier.
// Estimates are planning signals, not predictions: they rank engines against
// each other on the calibrated hardware profile and bound memory
// conservatively (the planner must never pick a plan that cannot fit, so the
// byte model rounds up).
//
// The planner chooses among "full-capability" plans first: engines whose
// outputs feed the entire collective matcher suite (dense, and the sparse
// candidate-graph family, whose top-C graphs the sparse matcher twins
// consume bit-identically at full width). The streaming-tiles engine runs
// only the fused matchers (DInf, CSLS, Sink.-mb), so it is kept as the
// degradation floor: chosen only when no full-capability plan fits the
// budget, and annotated as such.
package plan

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"entmatcher/internal/ann"
	"entmatcher/internal/engine"
	"entmatcher/internal/quant"
	"entmatcher/internal/shard"
)

// Engine identifies one of the pipeline's similarity/candidate engines.
type Engine string

const (
	// EngineDense materializes the full |src|×|tgt| float64 score matrix.
	EngineDense Engine = "dense"
	// EngineStreaming streams 256×512 score tiles into fused matchers; the
	// matrix is never materialized, but only the fused matcher subset runs.
	EngineStreaming Engine = "streaming"
	// EngineSparse builds exact top-C candidate graphs in one streamed pass
	// and runs the sparse matcher twins over them.
	EngineSparse Engine = "sparse"
	// EngineANN builds the candidate graphs through the IVF index — sub-
	// quadratic scan at the price of bounded candidate recall.
	EngineANN Engine = "ann+sparse"
	// EngineQuant builds the graphs from SQ8 int8 code slabs with exact
	// float64 re-rank — bit-identical to EngineSparse at the default factor.
	EngineQuant Engine = "quant+sparse"
	// EngineANNQuant scans the IVF slabs quantized: ANN's sub-quadratic
	// probing with quant's int8 kernel.
	EngineANNQuant Engine = "ann+quant"
	// EngineShard partitions both corpora by an IVF coarse quantizer into
	// co-clustered shards and builds the candidate graphs per shard on a
	// bounded worker pool — each source row only scans the targets sharing
	// one of its nearest cells, so scan work drops by replicas/shards and
	// peak working set is governed by the worker pool, not the corpus.
	EngineShard Engine = "shard+sparse"
)

// Workload is the planning input: the problem shape plus the two budgets
// (bytes and recall) a plan must respect.
type Workload struct {
	// SrcRows and TgtRows are the evaluation task's side sizes.
	SrcRows int `json:"src_rows"`
	// TgtRows is the target-side row count.
	TgtRows int `json:"tgt_rows"`
	// Dim is the prepared embedding width.
	Dim int `json:"dim"`
	// MemoryBudgetBytes caps the estimated peak working bytes of the chosen
	// plan (tables + engine state). 0 means unbounded.
	MemoryBudgetBytes int64 `json:"memory_budget_bytes,omitempty"`
	// TargetRecall is the candidate-recall floor a plan must meet, in (0,1].
	// 0 means exact (1.0): only plans whose candidate sets provably cover
	// the exhaustive top-C qualify.
	TargetRecall float64 `json:"target_recall,omitempty"`
	// CandidateBudget fixes the top-C width of candidate-graph plans.
	// 0 means the planner default: min(64, TgtRows).
	CandidateBudget int `json:"candidate_budget,omitempty"`
	// OutOfCore declares the embedding tables live in a snapshot served
	// through disk-backed slabs rather than on the heap. Engines that only
	// consume the tables through the tiled streaming pass (streaming,
	// sparse, shard+sparse) then drop the resident-table term from their
	// peak-byte estimates; engines that must materialize table-sized state
	// (dense, the IVF slabs, SQ8 re-rank tables) keep it.
	OutOfCore bool `json:"out_of_core,omitempty"`
}

// ErrBadWorkload wraps workload-validation failures.
var ErrBadWorkload = errors.New("plan: invalid workload")

// ErrInfeasible is returned (wrapped) when no plan satisfies the budget.
var ErrInfeasible = errors.New("plan: no feasible plan")

func (w Workload) validate() error {
	if w.SrcRows <= 0 || w.TgtRows <= 0 || w.Dim <= 0 {
		return fmt.Errorf("%w: shape %d×%d d=%d must be positive", ErrBadWorkload, w.SrcRows, w.TgtRows, w.Dim)
	}
	if w.MemoryBudgetBytes < 0 {
		return fmt.Errorf("%w: negative memory budget %d", ErrBadWorkload, w.MemoryBudgetBytes)
	}
	if w.TargetRecall < 0 || w.TargetRecall > 1 || math.IsNaN(w.TargetRecall) {
		return fmt.Errorf("%w: target recall %v outside [0, 1]", ErrBadWorkload, w.TargetRecall)
	}
	if w.CandidateBudget < 0 {
		return fmt.Errorf("%w: negative candidate budget %d", ErrBadWorkload, w.CandidateBudget)
	}
	return nil
}

// Candidate is one costed plan: an engine, its knobs — the exact value a
// hand-written PipelineConfig resolves to for the same engine, so a
// planner-chosen run and its hand-configured twin are bit-identical — the
// model's estimates, and, when it was not chosen, the reason it lost.
type Candidate struct {
	Engine Engine       `json:"engine"`
	Knobs  engine.Knobs `json:"knobs"`
	// EstPeakBytes is the modeled peak working set: prepared tables plus
	// engine state (matrix, graphs, index slabs, code slabs).
	EstPeakBytes int64 `json:"est_peak_bytes"`
	// EstWallNS is the modeled end-to-end wall time (prepare + one
	// representative matcher pass) in nanoseconds.
	EstWallNS int64 `json:"est_wall_ns"`
	// EstRecall is the modeled candidate recall (1.0 for exact engines).
	EstRecall float64 `json:"est_recall"`
	// FullCapability reports whether the engine feeds the whole collective
	// matcher suite (false only for the streaming-tiles fallback).
	FullCapability bool `json:"full_capability"`
	// Feasible reports whether the plan fits the workload's budgets.
	Feasible bool `json:"feasible"`
	// Reason is empty on the chosen plan; otherwise it states why the plan
	// lost: "infeasible: ...", "recall ... below target ...", "slower: ...",
	// or "fallback tier: ...".
	Reason string `json:"reason,omitempty"`
}

// EstWall returns the wall-time estimate as a duration.
func (c Candidate) EstWall() time.Duration { return time.Duration(c.EstWallNS) }

// Label renders the engine with its distinguishing knobs, e.g.
// "ann+sparse (cand=64, k=127, nprobe=8)".
func (c Candidate) Label() string {
	var parts []string
	if c.Knobs.CandidateBudget > 0 {
		parts = append(parts, fmt.Sprintf("cand=%d", c.Knobs.CandidateBudget))
	}
	if c.Knobs.Clusters > 0 {
		parts = append(parts, fmt.Sprintf("k=%d", c.Knobs.Clusters))
	}
	if c.Knobs.NProbe > 0 {
		parts = append(parts, fmt.Sprintf("nprobe=%d", c.Knobs.NProbe))
	}
	if c.Knobs.Quant {
		parts = append(parts, fmt.Sprintf("rerank=%d", c.Knobs.RerankFactor))
	}
	if c.Knobs.Shards > 0 {
		parts = append(parts, fmt.Sprintf("shards=%d", c.Knobs.Shards))
	}
	if len(parts) == 0 {
		return string(c.Engine)
	}
	return fmt.Sprintf("%s (%s)", c.Engine, strings.Join(parts, ", "))
}

// Plan is the planner's decision: the workload it planned for, the chosen
// candidate, and every rejected candidate with its reason. The whole struct
// marshals to JSON for machine consumption; Explain renders it for humans.
type Plan struct {
	Workload Workload    `json:"workload"`
	Chosen   Candidate   `json:"chosen"`
	Rejected []Candidate `json:"rejected"`
}

// Explain renders the decision as an indented human-readable transcript:
// one line for the workload, one for the chosen plan, one per rejection.
func (p *Plan) Explain() string {
	var b strings.Builder
	target := p.Workload.TargetRecall
	if target == 0 {
		target = 1
	}
	budget := "unbounded"
	if p.Workload.MemoryBudgetBytes > 0 {
		budget = humanBytes(p.Workload.MemoryBudgetBytes)
	}
	fmt.Fprintf(&b, "planner: workload %d×%d d=%d, budget %s, target recall %.3f\n",
		p.Workload.SrcRows, p.Workload.TgtRows, p.Workload.Dim, budget, target)
	b.WriteString("  calibration: plan.Defaults (fixed table, measured on 2.1–2.7 GHz Xeons at GOMAXPROCS=1)\n")
	fmt.Fprintf(&b, "  chosen %s: est wall %s, est peak %s, est recall %.3f\n",
		p.Chosen.Label(), humanDuration(p.Chosen.EstWall()), humanBytes(p.Chosen.EstPeakBytes), p.Chosen.EstRecall)
	for _, c := range p.Rejected {
		fmt.Fprintf(&b, "  rejected %s: est wall %s, est peak %s, est recall %.3f — %s\n",
			c.Label(), humanDuration(c.EstWall()), humanBytes(c.EstPeakBytes), c.EstRecall, c.Reason)
	}
	return b.String()
}

// MarshalJSON is the default struct marshaling; declared here only to pin
// that Plan is part of the machine-readable surface (CLIs print it under
// -explain, the server exposes it in /statsz).
func (p *Plan) MarshalJSON() ([]byte, error) {
	type alias Plan // avoid recursion
	return json.Marshal((*alias)(p))
}

// Choose costs every engine for the workload and picks the cheapest feasible
// full-capability plan; the streaming fallback is chosen only when nothing
// else fits the budget. The returned Plan lists every candidate. When even
// the fallback is infeasible the error wraps ErrInfeasible and carries each
// candidate's reason.
func (cal *Calibration) Choose(w Workload) (*Plan, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	target := w.TargetRecall
	if target == 0 {
		target = 1
	}
	cands := cal.enumerate(w, target)

	// Feasibility: the memory budget is a hard cap; recall below target
	// disqualifies. Reasons for infeasible candidates are final here.
	for i := range cands {
		c := &cands[i]
		if w.MemoryBudgetBytes > 0 && c.EstPeakBytes > w.MemoryBudgetBytes {
			c.Feasible = false
			c.Reason = fmt.Sprintf("infeasible: est peak %s exceeds budget %s",
				humanBytes(c.EstPeakBytes), humanBytes(w.MemoryBudgetBytes))
			continue
		}
		if c.EstRecall < target-1e-9 {
			c.Feasible = false
			c.Reason = fmt.Sprintf("recall: est %.3f below target %.3f", c.EstRecall, target)
			continue
		}
		c.Feasible = true
	}

	best := -1
	for i, c := range cands {
		if !c.Feasible || !c.FullCapability {
			continue
		}
		if best < 0 || less(c, cands[best]) {
			best = i
		}
	}
	fallback := best < 0
	if fallback {
		// No full-capability plan fits: degrade to the cheapest feasible
		// fallback-tier plan (streaming tiles) rather than failing.
		for i, c := range cands {
			if !c.Feasible {
				continue
			}
			if best < 0 || less(c, cands[best]) {
				best = i
			}
		}
	}
	if best < 0 {
		var reasons []string
		for _, c := range cands {
			reasons = append(reasons, fmt.Sprintf("%s: %s", c.Label(), c.Reason))
		}
		return nil, fmt.Errorf("%w for %d×%d d=%d under budget %s: %s",
			ErrInfeasible, w.SrcRows, w.TgtRows, w.Dim,
			humanBytes(w.MemoryBudgetBytes), strings.Join(reasons, "; "))
	}

	chosen := cands[best]
	chosen.Reason = ""
	p := &Plan{Workload: w, Chosen: chosen}
	for i, c := range cands {
		if i == best {
			continue
		}
		if c.Feasible && c.Reason == "" {
			switch {
			case !c.FullCapability && !fallback:
				c.Reason = fmt.Sprintf("fallback tier: runs fused matchers only, and %s fits the budget", chosen.Label())
			default:
				c.Reason = fmt.Sprintf("slower: est %s vs %s for %s",
					humanDuration(c.EstWall()), humanDuration(chosen.EstWall()), chosen.Engine)
			}
		}
		p.Rejected = append(p.Rejected, c)
	}
	sort.SliceStable(p.Rejected, func(i, j int) bool { return less(p.Rejected[i], p.Rejected[j]) })
	return p, nil
}

// less orders candidates by estimated wall time, then peak bytes, then
// engine name — a total order so planning is deterministic.
func less(a, b Candidate) bool {
	if a.EstWallNS != b.EstWallNS {
		return a.EstWallNS < b.EstWallNS
	}
	if a.EstPeakBytes != b.EstPeakBytes {
		return a.EstPeakBytes < b.EstPeakBytes
	}
	return a.Engine < b.Engine
}

// AutoShards is the planner's shard-count default for an m-row target
// corpus: √m/8, clamped to [2, 4096] — cells an order of magnitude coarser
// than IVF's √m probing cells, so each shard stays a substantial sub-problem
// (k-means training cost is amortized) while per-shard tables shrink
// quadratically. Below 4 targets per would-be shard, sharding is pure
// overhead and AutoShards returns 1 (the degenerate exact build).
func AutoShards(m int) int {
	s := int(math.Round(math.Sqrt(float64(m)) / 8))
	if s < 2 {
		s = 2
	}
	if s > 4096 {
		s = 4096
	}
	if m < 4*s {
		return 1
	}
	return s
}

// shardWorkers is the nominal worker-pool width the peak-byte model assumes;
// the runtime pool is GOMAXPROCS-bound, but estimates must not depend on the
// planning machine's core count.
const shardWorkers = 8

const (
	// tileOverheadBytes bounds the streaming engine's pooled tile buffers
	// and per-worker scratch.
	tileOverheadBytes = 8 << 20
	// graphBytesPerEdge is the per-edge cost of a forward+reverse candidate
	// graph pair plus its build-time heap accumulators: 12 bytes CSR
	// (int32 col + float64 score) and 16 bytes of flat heap slab.
	graphBytesPerEdge = 28
	// maxQuantRatio caps the quant/float time ratio outside the fitted
	// regime (pool ≪ corpus); past it the model would be pure extrapolation.
	maxQuantRatio = 3.0
)

// enumerate builds the costed candidate list for the workload. Estimates
// only; feasibility and reasons are filled in by Choose.
func (cal *Calibration) enumerate(w Workload, target float64) []Candidate {
	n := float64(w.SrcRows)
	m := float64(w.TgtRows)
	d := float64(w.Dim)
	c := w.CandidateBudget
	if c <= 0 {
		c = 64
	}
	if c > w.TgtRows {
		c = w.TgtRows
	}
	cf := float64(c)

	tables := int64(8 * (n + m) * d)
	// Engines that touch the tables only through the tiled pass can serve
	// them from disk-backed slabs when the workload says so.
	tablesRes := tables
	if w.OutOfCore {
		tablesRes = 0
	}
	graphs := int64((n + m) * cf * graphBytesPerEdge)
	// IVF slabs: corpus-row copies for both directions, centroids, ids.
	kFwd := ann.AutoClusters(w.TgtRows)
	kRev := ann.AutoClusters(w.SrcRows)
	ivf := int64(8*(n+m)*d + 8*float64(kFwd+kRev)*d + 4*(n+m))
	codes := int64((n+m)*d + 16*d) // SQ8 code slabs + per-dimension scales

	// Every exhaustive and probed scan runs the register-blocked multi-query
	// kernels; the scan coefficients were measured on per-pair builds, so the
	// blocked throughput ratios bridge them to the current kernels (int8
	// scans block by four and have their own ratio).
	blk := cal.BlockedScanSpeedup
	blk8 := cal.BlockedI8Speedup

	edgeNS := cal.SparseEdgeNS * (n + m) * cf
	scanRawNS := cal.SparseBuildNS * n * m * d
	scanNS := scanRawNS / blk
	// Quantized scans trade the float64 kernel for int8 + an exact re-rank
	// pool of factor×C rows per query; the ratio model is fitted against
	// the float scan of the same geometry. The fitted line is only valid
	// while the pool is a small fraction of the corpus — cap the
	// extrapolation once the pool stops being selective.
	pool := math.Min(float64(quant.DefaultRerankFactor)*cf, m)
	quantRatio := cal.QuantScanRatio + cal.QuantRerankMult*pool/m
	if quantRatio > maxQuantRatio {
		quantRatio = maxQuantRatio
	}
	encodeNS := cal.QuantEncodeNS * (n + m) * d

	cands := []Candidate{
		{
			Engine:         EngineDense,
			EstPeakBytes:   tables + int64(16*n*m), // matrix + one matcher-held transform copy
			EstWallNS:      int64(cal.DenseSimNS*n*m*d/blk + cal.DenseMatchNS*n*m),
			EstRecall:      1,
			FullCapability: true,
		},
		{
			Engine:         EngineStreaming,
			Knobs:          engine.Knobs{Streaming: true},
			EstPeakBytes:   tablesRes + tileOverheadBytes,
			EstWallNS:      int64(cal.StreamPassNS * n * m * d / blk),
			EstRecall:      1,
			FullCapability: false,
		},
		{
			Engine:         EngineSparse,
			Knobs:          engine.Knobs{CandidateBudget: c},
			EstPeakBytes:   tablesRes + tileOverheadBytes + graphs,
			EstWallNS:      int64(scanNS + edgeNS),
			EstRecall:      1,
			FullCapability: true,
		},
		{
			Engine:         EngineQuant,
			Knobs:          engine.Knobs{CandidateBudget: c, Quant: true, RerankFactor: quant.DefaultRerankFactor},
			EstPeakBytes:   tables + tileOverheadBytes + graphs + codes,
			EstWallNS:      int64(encodeNS + scanRawNS*quantRatio/blk8 + edgeNS),
			EstRecall:      1, // exact float64 re-rank at the default factor is bit-identical
			FullCapability: true,
		},
	}

	// IVF plans: the recall curve maps probed-cluster fraction to candidate
	// recall; pick the smallest nprobe whose fitted recall meets the target,
	// and additionally cost the index's own fast default (ann.AutoNProbe) so a
	// recall-rejected candidate appears in the explanation when the target
	// is above what fast probing delivers.
	trainNS := cal.ANNTrainNS * (m*float64(kFwd) + n*float64(kRev)) * d
	centNS := cal.ANNCentroidNS * n * float64(kFwd) * d
	annAt := func(e Engine, np int, quantized bool) Candidate {
		frac := float64(np) / float64(kFwd)
		scanRaw := cal.ANNScanNS * frac * n * m * d
		wall := trainNS + centNS + scanRaw/blk + edgeNS
		peak := tables + tileOverheadBytes + graphs + ivf
		knobs := engine.Knobs{CandidateBudget: c, Clusters: kFwd, NProbe: np}
		if quantized {
			wall = trainNS + centNS + scanRaw*quantRatio/blk8 + encodeNS + edgeNS
			peak += codes
			knobs.Quant = true
			knobs.RerankFactor = quant.DefaultRerankFactor
		}
		return Candidate{
			Engine:         e,
			Knobs:          knobs,
			EstPeakBytes:   peak,
			EstWallNS:      int64(wall),
			EstRecall:      cal.Recall.Eval(frac),
			FullCapability: true,
		}
	}
	tuned := kFwd // exact coverage unless the curve says less suffices
	if f, ok := cal.Recall.Invert(target); ok {
		tuned = int(math.Ceil(f * float64(kFwd)))
		if tuned < 1 {
			tuned = 1
		}
		if tuned > kFwd {
			tuned = kFwd
		}
	}
	cands = append(cands, annAt(EngineANN, tuned, false), annAt(EngineANNQuant, tuned, true))
	if fast := ann.AutoNProbe(kFwd); fast != tuned {
		cands = append(cands, annAt(EngineANN, fast, false))
	}

	// Sharded plan: co-cluster both corpora into S cells, scan each source
	// row only against the targets in its R nearest cells. Scan work drops
	// to R/S of the exhaustive pass; resident tables are replaced by the
	// worker pool's gathered per-shard sub-tables (plus the full tables,
	// unless the workload serves them out of core). Replicating into R of S
	// cells is coarse probing, so candidate recall follows the same fitted
	// curve as IVF at fraction R/S.
	if s := AutoShards(w.TgtRows); s > 1 {
		r := shard.DefaultReplicas
		if r > s {
			r = s
		}
		frac := float64(r) / float64(s)
		workers := shardWorkers
		if workers > s {
			workers = s
		}
		// Per-shard gathered tables: n·R/S source rows + m/S target rows,
		// live on Workers shards at once.
		shardTables := int64(8 * d * (n*frac + m/float64(s)) * float64(workers))
		cands = append(cands, Candidate{
			Engine: EngineShard,
			Knobs:  engine.Knobs{CandidateBudget: c, Shards: s},
			EstPeakBytes: tablesRes + tileOverheadBytes + graphs +
				shardTables,
			EstWallNS:      int64(cal.shardWallNS(n, m, d, cf, s) * cal.ShardCalibMult),
			EstRecall:      cal.Recall.Eval(frac),
			FullCapability: true,
		})
	}
	return cands
}

// shardWallNS is the component model of the sharded engine's wall time —
// k-means co-clustering into s cells, assigning both corpora, the
// replicated fraction of the (blocked-kernel) exhaustive scan, and the
// sparse matcher pass over the replicas' edges — before ShardCalibMult's
// end-to-end drift correction (the multiplier was taken as measured wall over
// this same model, so the correction and its application stay consistent).
func (cal *Calibration) shardWallNS(n, m, d, cf float64, s int) float64 {
	r := shard.DefaultReplicas
	if r > s {
		r = s
	}
	frac := float64(r) / float64(s)
	trainShardNS := cal.ANNTrainNS * 32768 * float64(s) * d
	assignNS := cal.ANNCentroidNS * (n + m) * float64(s) * d
	scanNS := cal.SparseBuildNS * n * m * d / cal.BlockedScanSpeedup
	edgeNS := cal.SparseEdgeNS * (n + m) * cf
	return trainShardNS + assignNS + scanNS*frac + edgeNS*float64(r)
}

// humanBytes renders a byte count in binary units.
func humanBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// humanDuration trims a duration to three significant places.
func humanDuration(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return d.String()
	}
}
