package entmatcher

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"entmatcher/internal/ann"
	"entmatcher/internal/core"
	"entmatcher/internal/embed"
	"entmatcher/internal/engine"
	"entmatcher/internal/eval"
	"entmatcher/internal/matrix"
	"entmatcher/internal/plan"
	"entmatcher/internal/sim"
	"entmatcher/internal/snapshot"
)

// FeatureMode selects which entity features feed the similarity matrix,
// matching the paper's input-feature axis (Tables 4 and 5).
type FeatureMode int

const (
	// FeatureStructure uses structural embeddings only (Table 4's R-/G-).
	FeatureStructure FeatureMode = iota
	// FeatureName uses name embeddings only (Table 5's N-).
	FeatureName
	// FeatureFused fuses name and structural embeddings (Table 5's NR-).
	FeatureFused
)

// String names the mode with the paper's prefixes.
func (f FeatureMode) String() string {
	switch f {
	case FeatureStructure:
		return "structure"
	case FeatureName:
		return "name"
	case FeatureFused:
		return "name+structure"
	default:
		return fmt.Sprintf("FeatureMode(%d)", int(f))
	}
}

// Setting selects the evaluation scenario.
type Setting int

const (
	// SettingOneToOne is the paper's main 1-to-1 constrained evaluation.
	SettingOneToOne Setting = iota
	// SettingUnmatchable adds entities without counterparts (§ 5.1).
	SettingUnmatchable
	// SettingNonOneToOne evaluates against multi-link gold sets (§ 5.2).
	SettingNonOneToOne
)

// String names the setting.
func (s Setting) String() string {
	switch s {
	case SettingOneToOne:
		return "1-to-1"
	case SettingUnmatchable:
		return "unmatchable"
	case SettingNonOneToOne:
		return "non-1-to-1"
	default:
		return fmt.Sprintf("Setting(%d)", int(s))
	}
}

// PipelineConfig assembles a full experiment configuration. The zero value
// is a valid default: GCN structural embeddings, cosine similarity, 1-to-1
// evaluation; set Model: ModelRREA for the paper's stronger encoder. The
// preparation itself is fixed, as in the paper's study: the encoder runs the
// model's calibrated preset, and FeatureFused weights names and structure
// 0.5 / 0.5 (FuseEmbeddings + PrepareWithEmbeddings take other weights).
type PipelineConfig struct {
	// Model is the structural encoder preset (ModelGCN by default).
	Model embed.Model
	// Features selects the input features.
	Features FeatureMode
	// Metric is the similarity metric (cosine by default).
	Metric sim.Metric
	// Setting is the evaluation scenario.
	Setting Setting
	// WithValidation attaches a validation task to the match context so
	// learning matchers (RL) can tune themselves, as in the paper.
	WithValidation bool
	// Streaming prepares the run on the tiled streaming similarity engine:
	// scores are computed tile by tile from the embedding tables and the
	// dense score matrix is never materialized. Only streaming-capable
	// matchers (NewDInfStream, NewCSLSStream, NewSinkhornBlocked) can run on
	// a streaming run; dense-only matchers return ErrEmptyMatrix-class
	// errors. The validation matrix (WithValidation) stays dense — it is a
	// small fraction of the test matrix. Streaming, CandidateBudget and Auto
	// are the only ways a run leaves the dense matrix.
	Streaming bool
	// MemoryBudgetBytes caps the planner's estimated peak working bytes:
	// under Auto, plans that would exceed it are rejected. It is a planner
	// input only and requires Auto; 0 means no cap.
	MemoryBudgetBytes int64
	// CandidateBudget, when positive, declares that matching will run on
	// sparse candidate graphs of top-C edges per entity (the sparse matcher
	// twins: NewRInfSparse, NewHungarianSparse, NewSMatSparse, ...), so
	// Prepare uses the streaming engine — the graphs are built in one tiled
	// pass at match time and the dense score matrix is never materialized.
	// Zero (the default) prepares densely unless Streaming or Auto says
	// otherwise.
	CandidateBudget int
	// ANN, when non-nil, builds the candidate graphs through the IVF
	// approximate-nearest-neighbor index (internal/ann) instead of the
	// exhaustive streaming pass — sub-quadratic construction at the price of
	// bounded recall (exact again at NProbe = Clusters). Requires
	// CandidateBudget > 0 (only graph construction is accelerated) and the
	// cosine metric (the index searches by inner product over the stream's
	// normalized tables). Abstention runs, whose dummy columns hide the
	// index, build their graphs from the exact tiles.
	ANN *ANNConfig
	// Quant, when non-nil, routes candidate-graph construction through SQ8
	// scalar-quantized scan tables (internal/quant): every scan ranks with an
	// int8 dot kernel over codes ⅛ the size of the float64 tables, then
	// re-scores an over-fetched candidate pool with exact float64 products so
	// the emitted graphs stay bit-identical to the float path at the default
	// rerank factor. Composes with ANN (the IVF slabs themselves are scanned
	// quantized) or runs standalone over the exhaustive streaming pass. Like
	// ANN it requires CandidateBudget > 0 and the cosine metric. Tile and
	// block consumers still stream exact float64 scores.
	Quant *QuantConfig
	// Shards, when positive, partitions both corpora by an IVF-style coarse
	// quantizer into co-clustered shards (internal/shard) and builds the
	// candidate graphs per shard on a bounded worker pool: each source row
	// is scanned only against the targets sharing one of its nearest cells,
	// and a reconciliation merge re-resolves targets claimed from different
	// shards through the global sparse matcher. Requires CandidateBudget > 0
	// (only candidate-graph construction is sharded) and is mutually
	// exclusive with ANN and Quant, which already replace the graph
	// producer. Shards=1 is the degenerate exact build, bit-identical to
	// the exhaustive engine; Shards>1 trades bounded candidate recall for
	// scan work divided by Shards/replicas and per-shard working sets.
	Shards int
	// OutOfCore serves the embedding tables from the snapshot file itself
	// instead of materializing them on the heap: sections are mmapped where
	// the platform supports it (bit-identical, zero-copy) and otherwise
	// read through bounded chunked-ReadAt slab windows. Requires
	// LoadSnapshot; incompatible with ANN (reconstructing IVF slabs would
	// materialize table-sized state and defeat the point). Quant composes
	// only on the mmap path (the exact re-rank needs addressable tables)
	// and then scans SQ8 sections an eighth the size of the float slabs.
	OutOfCore bool
	// SaveSnapshot, when non-empty, persists the prepared state — the
	// unit-normalized embedding tables, the entity-name vocabularies, and
	// (with ANN set) the trained IVF index slabs — to this path after
	// preparation, via internal/snapshot's atomic, checksummed writer.
	// Requires a streaming preparation (Streaming or CandidateBudget > 0):
	// only streaming runs carry the prepared tables a snapshot captures.
	SaveSnapshot string
	// LoadSnapshot, when non-empty, prepares the run from a previously
	// saved snapshot instead of re-encoding embeddings: Prepare skips
	// representation learning and similarity preparation entirely and
	// reconstructs the streaming engine (and any persisted IVF indexes)
	// from the snapshot's tables. The snapshot must match the requested
	// configuration — same evaluation setting, feature mode, metric,
	// dataset vocabulary, and (when ANN is set) cluster count — or Prepare
	// fails with ErrSnapshotMismatch rather than silently rebuilding.
	// Incompatible with SaveSnapshot, WithValidation (the validation
	// matrix is not snapshotted) and externally supplied embeddings.
	LoadSnapshot string
	// Auto lets the cost-based planner (internal/plan) pick the engine:
	// once the task shape is known, Prepare estimates wall time and peak
	// bytes for every engine from the calibrated cost curves and configures
	// the cheapest plan meeting TargetRecall within MemoryBudgetBytes. Any
	// explicit engine knob (Streaming, CandidateBudget, ANN, Quant)
	// overrides the planner entirely — Auto never second-guesses a pinned
	// configuration. The chosen plan, with per-candidate estimates and
	// rejection reasons, is returned on Run.Plan. Incompatible with
	// LoadSnapshot (a snapshot already fixes the engine).
	Auto bool
	// TargetRecall relaxes the candidate-recall floor the planner must
	// meet, in (0, 1]; 0 means exact (only plans whose candidate graphs
	// provably cover the exhaustive top-C qualify). Requires Auto: without
	// the planner there is nothing to trade recall against.
	TargetRecall float64
}

// ANNConfig tunes the IVF candidate generator; zero fields mean scale-aware
// defaults (Clusters ≈ √targets, NProbe = max(1, Clusters/16)). The
// quantizer trains on min(32·Clusters, targets) sampled points. See
// internal/ann.Config for the precise semantics.
type ANNConfig struct {
	// Clusters is the number of k-means cells of the coarse quantizer.
	Clusters int
	// NProbe is how many cells each query scans — the recall/speed knob.
	NProbe int
	// Seed drives sampling and seeding; a fixed seed makes runs identical.
	Seed int64
}

// QuantConfig tunes the SQ8 quantized scan; the zero value means the exact
// default: re-rank on, pool over-fetch at quant.DefaultRerankFactor.
type QuantConfig struct {
	// RerankFactor is the candidate-pool over-fetch multiplier: each scan
	// collects the quantized top factor×C (plus boundary ties) and re-scores
	// them exactly. 0 means quant.DefaultRerankFactor. Larger factors widen
	// the safety margin; factor ≥ targets/C makes the pool exhaustive.
	RerankFactor int
	// NoRerank skips the exact re-scoring pass — the escape hatch that trades
	// bit-identical selections for pure int8 speed. Emitted edge scores are
	// then the quantized approximations.
	NoRerank bool
}

// ErrBadConfig is returned by Pipeline.Prepare (via PipelineConfig.Validate)
// for configurations that would otherwise fail deep inside internal/embed or
// internal/sim: unknown enum values, nil datasets, and engine knobs that
// break internal/engine's rule table. MatchWithAbstention returns it for a
// NaN quantile.
var ErrBadConfig = errors.New("entmatcher: invalid pipeline configuration")

func badConfig(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadConfig}, args...)...)
}

// ErrSnapshotMismatch is returned by Prepare when a loaded snapshot is
// structurally sound but does not hold what the run asked for: a different
// metric, setting, feature mode, dataset vocabulary, or index geometry.
// It is internal/snapshot's ErrMismatch, re-exported so callers can test
// for it without importing the internal package.
var ErrSnapshotMismatch = snapshot.ErrMismatch

// engine resolves the configuration's engine fields to the one description
// internal/engine, the planner and entserver share. This is the only place
// a PipelineConfig is translated.
func (c PipelineConfig) engine() engine.Knobs {
	k := engine.Knobs{
		Streaming:       c.Streaming,
		CandidateBudget: c.CandidateBudget,
		Shards:          c.Shards,
		OutOfCore:       c.OutOfCore,
	}
	if a := c.ANN; a != nil {
		k.Clusters, k.AutoClusters = a.Clusters, a.Clusters == 0
		k.NProbe, k.Seed = a.NProbe, a.Seed
	}
	if q := c.Quant; q != nil {
		k.Quant, k.RerankFactor, k.NoRerank = true, q.RerankFactor, q.NoRerank
	}
	return k
}

// Validate checks the configuration up front and reports the first problem
// with a clear, typed error (wrapped around ErrBadConfig). Which engine
// knobs combine is internal/engine's rule table (Knobs.Check); what is left
// here is what the engine description does not carry: the enums, the
// planner's inputs and the snapshot paths.
func (c PipelineConfig) Validate() error {
	switch c.Model {
	case ModelGCN, ModelRREA:
	default:
		return badConfig("unknown encoder model %v", c.Model)
	}
	switch c.Features {
	case FeatureStructure, FeatureName, FeatureFused:
	default:
		return badConfig("unknown feature mode %v", c.Features)
	}
	switch c.Metric {
	case MetricCosine, MetricEuclidean, MetricManhattan:
	default:
		return badConfig("unknown similarity metric %v", c.Metric)
	}
	switch c.Setting {
	case SettingOneToOne, SettingUnmatchable, SettingNonOneToOne:
	default:
		return badConfig("unknown evaluation setting %v", c.Setting)
	}
	if c.MemoryBudgetBytes < 0 {
		return badConfig("MemoryBudgetBytes must be non-negative, got %d", c.MemoryBudgetBytes)
	}
	k := c.engine()
	if err := k.Check(c.Metric, 0, 0); err != nil {
		return badConfig("%w", err)
	}
	load, save := c.LoadSnapshot != "", c.SaveSnapshot != ""
	for _, r := range []struct {
		broken bool
		msg    string
	}{
		{c.OutOfCore && !load, "OutOfCore requires LoadSnapshot (only snapshot slabs can back an out-of-core run)"},
		{c.TargetRecall < 0 || c.TargetRecall > 1 || math.IsNaN(c.TargetRecall), fmt.Sprintf("TargetRecall must be in [0, 1], got %v", c.TargetRecall)},
		{c.TargetRecall > 0 && !c.Auto, "TargetRecall requires Auto (only the planner can trade candidate recall for speed)"},
		{c.MemoryBudgetBytes > 0 && !c.Auto, "MemoryBudgetBytes requires Auto (it caps the planner's estimated peak; set Streaming or CandidateBudget to leave the dense matrix by hand)"},
		{c.Auto && load, "Auto cannot plan a snapshot-backed run (the snapshot already fixes the engine); drop Auto or prepare fresh"},
		{save && load, "SaveSnapshot and LoadSnapshot are mutually exclusive"},
		{(save || load) && !k.Streams(), "SaveSnapshot and LoadSnapshot require a streaming preparation (set Streaming or CandidateBudget; only streaming runs carry the prepared tables a snapshot holds)"},
		{load && c.WithValidation, "LoadSnapshot cannot serve WithValidation (the validation matrix is not snapshotted; prepare fresh for validation-dependent matchers)"},
	} {
		if r.broken {
			return badConfig("%s", r.msg)
		}
	}
	return nil
}

// Pipeline turns datasets into prepared matching runs.
type Pipeline struct {
	cfg PipelineConfig
}

// NewPipeline returns a pipeline with the given configuration.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	return &Pipeline{cfg: cfg}
}

// Run is a prepared matching run: the evaluation task, its similarity
// matrix (or streaming engine), and the ready-to-use match context.
type Run struct {
	Task *Task
	// S is the similarity matrix (rows = Task.SourceIDs, columns =
	// Task.TargetIDs). Nil on streaming runs.
	S *Dense
	// Stream is the plain tiled streaming engine covering the same scores,
	// without the candidate-graph producer Ctx.Stream may put in front of
	// it. Non-nil exactly when S is nil: the run was prepared with
	// Streaming, a CandidateBudget, a snapshot, or a non-dense plan.
	Stream *SimilarityStream
	// Ctx is the context handed to matchers. Use MatchWithAbstention for
	// matchers that force a 1-to-1 assignment under the unmatchable setting.
	Ctx *MatchContext
	// Plan is the cost-based planner's decision when the run was prepared
	// with Auto and no explicit engine knob: the chosen candidate plus
	// every rejected candidate with estimates and reasons. Nil when the
	// engine was configured explicitly (the planner was bypassed).
	Plan *plan.Plan
	// OutOfCoreMode names how an out-of-core run serves its tables: "mmap"
	// (snapshot sections aliased into the address space) or "readat" (the
	// portable chunked fallback). Empty for resident runs.
	OutOfCoreMode string

	// closer releases resources an out-of-core run holds open (the snapshot
	// reader and its mappings). It runs once however many WithContext copies
	// call it. Nil for resident runs.
	closer func() error

	// graphs is the candidate-graph memo newRun wrapped around Ctx.Stream;
	// nil on dense runs. Kept here so the counters stay reachable when a
	// caller re-wraps Ctx.Stream.
	graphs *matrix.GraphMemo
}

// GraphStats reports the work of the run's candidate-graph memo.
type GraphStats = matrix.MemoStats

// newRun assembles a prepared run. This is the one place the candidate-graph
// memo is installed: whatever engine stack a prepare path left in
// mctx.Stream (the plain stream, or the IVF, SQ8 or sharded producer over
// it) is wrapped once, so every sparse matcher run on the Run shares the
// graphs the first of them built. Dense runs have no tile source — sparse
// matchers get a fresh DenseTileSource view per call — and stay un-memoized.
func newRun(task *Task, s *Dense, stream *SimilarityStream, mctx *MatchContext) *Run {
	r := &Run{Task: task, S: s, Stream: stream, Ctx: mctx}
	if mctx.Stream != nil {
		r.graphs = matrix.Memo(mctx.Stream)
		mctx.Stream = r.graphs
	}
	return r
}

// GraphStats returns how often the run's sparse matchers built candidate
// graphs, how often they were served from the memo instead, how many parts
// came without a build of their own (CSLS's k = 1 column statistic, returned
// with a reverse build), the full tile passes streamed and the bytes the memo
// holds. Zero on dense runs.
func (r *Run) GraphStats() GraphStats {
	if r.graphs == nil {
		return GraphStats{}
	}
	return r.graphs.Stats()
}

// ForgetGraphs drops the candidate graphs the run has memoized, so the next
// sparse matcher rebuilds them — for callers timing one matcher cold (the
// benchmark tables). Results never depend on it.
func (r *Run) ForgetGraphs() {
	if r.graphs != nil {
		r.graphs.Forget()
	}
}

// Close drops the run's memoized candidate graphs and releases the snapshot
// reader backing an out-of-core run. Safe on any run (resident runs hold no
// reader) but required after out-of-core ones: the run's engines read the
// snapshot file lazily, so it must stay open for the run's lifetime and be
// closed afterwards. Copies made by WithContext share the underlying reader:
// the first Close among them releases it, the rest are no-ops.
func (r *Run) Close() error {
	r.ForgetGraphs()
	if r.closer == nil {
		return nil
	}
	return r.closer()
}

// Dims returns the score-matrix shape of the run — from the dense matrix or
// the streaming engine, whichever backs it.
func (r *Run) Dims() (rows, cols int) {
	if r.S != nil {
		return r.S.Rows(), r.S.Cols()
	}
	return r.Stream.Dims()
}

// Prepare encodes the dataset, builds the evaluation task for the
// configured setting and assembles the match context.
func (p *Pipeline) Prepare(d *Dataset) (*Run, error) {
	return p.PrepareContext(context.Background(), d)
}

// PrepareContext is Prepare under a cancellation context: the similarity
// kernels check ctx cooperatively, so preparation of a large run can be
// abandoned early.
func (p *Pipeline) PrepareContext(ctx context.Context, d *Dataset) (*Run, error) {
	if d == nil {
		return nil, badConfig("nil dataset")
	}
	if err := p.cfg.Validate(); err != nil {
		return nil, err
	}
	if p.cfg.LoadSnapshot != "" {
		return p.prepareLoaded(ctx, d)
	}
	emb, err := p.embeddings(d)
	if err != nil {
		return nil, err
	}
	return p.PrepareWithEmbeddingsContext(ctx, d, emb)
}

// PrepareWithEmbeddings is Prepare with externally produced embeddings —
// the entry point for users bringing their own representation-learning
// model, exactly the seam the original EntMatcher library exposes.
func (p *Pipeline) PrepareWithEmbeddings(d *Dataset, emb *Embeddings) (*Run, error) {
	return p.PrepareWithEmbeddingsContext(context.Background(), d, emb)
}

// PrepareWithEmbeddingsContext is PrepareWithEmbeddings under a cancellation
// context. Externally produced embeddings are validated here (finiteness,
// matching dimensions) before any similarity score is computed, so a
// NaN-laden table surfaces as a typed error instead of a poisoned matrix.
func (p *Pipeline) PrepareWithEmbeddingsContext(ctx context.Context, d *Dataset, emb *Embeddings) (*Run, error) {
	if d == nil {
		return nil, badConfig("nil dataset")
	}
	if emb == nil || emb.Source == nil || emb.Target == nil {
		return nil, badConfig("nil embeddings")
	}
	if err := p.cfg.Validate(); err != nil {
		return nil, err
	}
	if p.cfg.LoadSnapshot != "" {
		return nil, badConfig("LoadSnapshot is incompatible with externally supplied embeddings (the snapshot already holds the prepared tables)")
	}
	task, err := p.task(d)
	if err != nil {
		return nil, err
	}
	srcSel := emb.Source.SelectRows(task.SourceIDs)
	tgtSel := emb.Target.SelectRows(task.TargetIDs)

	// Auto: once the task shape is known, let the cost-based planner pick
	// the engine — unless an explicit engine knob already pins one, in
	// which case the planner is bypassed wholesale (explicit always wins).
	k := p.cfg.engine()
	var chosen *plan.Plan
	if p.cfg.Auto && k == (engine.Knobs{}) {
		cal := plan.Defaults()
		chosen, err = cal.Choose(p.cfg.planWorkload(srcSel.Rows(), tgtSel.Rows(), srcSel.Cols()))
		if err != nil {
			return nil, err
		}
		k = chosen.Chosen.Knobs
	}
	run, err := p.prepareEngines(ctx, d, emb, task, srcSel, tgtSel, k)
	if err != nil {
		return nil, err
	}
	run.Plan = chosen
	return run, nil
}

// prepareEngines builds the fresh similarity engine k describes — the
// caller's configuration resolved, or the planner's chosen knobs: the dense
// matrix, or the streaming tables internal/engine prepares.
func (p *Pipeline) prepareEngines(ctx context.Context, d *Dataset, emb *Embeddings, task *Task, srcSel, tgtSel *Dense, k engine.Knobs) (*Run, error) {
	// Again with the shape: an NProbe past what the auto IVF geometry
	// resolves to would otherwise be clamped silently inside internal/ann.
	if err := k.Check(p.cfg.Metric, srcSel.Rows(), tgtSel.Rows()); err != nil {
		return nil, badConfig("%w", err)
	}
	if !k.Streams() {
		s, err := sim.MatrixContext(ctx, srcSel, tgtSel, p.cfg.Metric)
		if err != nil {
			return nil, err
		}
		return p.assemble(ctx, d, emb, task, s, nil, k)
	}
	tables, err := engine.Fresh(ctx, srcSel, tgtSel, p.cfg.Metric, k)
	if err != nil {
		return nil, err
	}
	return p.assemble(ctx, d, emb, task, nil, tables, k)
}

// assemble is the one tail every preparation ends in: the match context with
// its adjacency, the producer the knobs select over the prepared tables
// (tables is nil on dense runs), the optional snapshot save and validation
// matrix, and the run with its candidate-graph memo. Run.Stream keeps the
// plain engine.
func (p *Pipeline) assemble(ctx context.Context, d *Dataset, emb *Embeddings, task *Task, s *Dense, tables *engine.Tables, k engine.Knobs) (*Run, error) {
	mctx := &core.Context{
		S:         s,
		SourceAdj: eval.LocalAdjacency(d.Source, task.SourceIDs),
		TargetAdj: eval.LocalAdjacency(d.Target, task.TargetIDs),
	}
	var stream *SimilarityStream
	if tables != nil {
		stream = tables.Stream
		producer, err := tables.Producer(k)
		if err != nil {
			return nil, err
		}
		mctx.Stream = producer
		if p.cfg.SaveSnapshot != "" {
			if err := p.saveSnapshot(ctx, d, task, tables, producer, k); err != nil {
				return nil, err
			}
		}
	}
	if p.cfg.WithValidation {
		vt, err := eval.ValidationTaskFor(d)
		if err != nil {
			return nil, err
		}
		vs, err := sim.MatrixContext(ctx,
			emb.Source.SelectRows(vt.SourceIDs),
			emb.Target.SelectRows(vt.TargetIDs),
			p.cfg.Metric,
		)
		if err != nil {
			return nil, err
		}
		mctx.Valid = &core.ValidationTask{
			S:         vs,
			SourceAdj: eval.LocalAdjacency(d.Source, vt.SourceIDs),
			TargetAdj: eval.LocalAdjacency(d.Target, vt.TargetIDs),
			Gold:      vt.Gold,
		}
	}
	return newRun(task, s, stream, mctx), nil
}

// embeddings produces the configured feature embeddings.
func (p *Pipeline) embeddings(d *Dataset) (*Embeddings, error) {
	encCfg := embed.DefaultConfig(p.cfg.Model)
	switch p.cfg.Features {
	case FeatureStructure:
		return embed.Encode(d, encCfg)
	case FeatureName:
		return embed.EncodeNames(d, embed.DefaultNameConfig())
	case FeatureFused:
		structural, err := embed.Encode(d, encCfg)
		if err != nil {
			return nil, err
		}
		names, err := embed.EncodeNames(d, embed.DefaultNameConfig())
		if err != nil {
			return nil, err
		}
		return embed.Fuse(names, structural, 0.5, 0.5)
	default:
		return nil, fmt.Errorf("entmatcher: unknown feature mode %v", p.cfg.Features)
	}
}

// taskVocab resolves the entity names behind a task's row (or column) ids —
// the vocabulary a snapshot stores so a later load can verify it is being
// applied to the same dataset and task.
func taskVocab(g *Graph, ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.EntityName(id)
	}
	return out
}

// saveSnapshot persists the prepared run at cfg.SaveSnapshot. With ANN
// configured the indexes are trained eagerly here (forward and reverse), so
// the snapshot amortizes quantizer training as well as table preparation.
func (p *Pipeline) saveSnapshot(ctx context.Context, d *Dataset, task *Task, tables *engine.Tables, producer matrix.TileSource, k engine.Knobs) error {
	sTab, tTab := tables.Stream.PreparedTables()
	snap := &snapshot.Snapshot{
		Meta: snapshot.Meta{
			Tool:     "entmatcher",
			Metric:   uint32(p.cfg.Metric),
			Setting:  uint32(p.cfg.Setting),
			Features: uint32(p.cfg.Features),
			SrcRows:  sTab.Rows(),
			TgtRows:  tTab.Rows(),
			Dim:      sTab.Cols(),
		},
		SrcTable: sTab,
		TgtTable: tTab,
		SrcVocab: taskVocab(d.Source, task.SourceIDs),
		TgtVocab: taskVocab(d.Target, task.TargetIDs),
	}
	if annSrc, ok := producer.(*ann.Source); ok {
		fwd, rev, err := annSrc.ExportIndexes(ctx, true)
		if err != nil {
			return err
		}
		snap.FwdIndex, snap.RevIndex = fwd, rev
		// The configuration as given, with the cluster count the auto
		// geometry resolved to.
		meta := snapshot.ANNMeta(annSrc.Config())
		meta.Clusters = fwd.K
		snap.Meta.ANN = &meta
	}
	if tables.SrcQ != nil {
		snap.SrcQuant, snap.TgtQuant = tables.SrcQ.Export(), tables.TgtQ.Export()
		snap.Meta.Quant = &snapshot.QuantMeta{RerankFactor: k.RerankFactor, Rerank: !k.NoRerank}
	}
	return snap.Write(p.cfg.SaveSnapshot)
}

// prepareLoaded reconstructs a streaming run from the snapshot at
// cfg.LoadSnapshot, verifying — never assuming — that it matches the dataset
// and the requested configuration. Every divergence is an
// ErrSnapshotMismatch: the caller asked for something this snapshot does not
// hold, and silently rebuilding would hide exactly the staleness a
// production loader must surface. One verified reader serves both modes: the
// default materializes the tables from it and closes it; with OutOfCore the
// tables stay in the file (mmapped or read through slab windows) and the
// returned run holds the reader open — callers must Close it.
func (p *Pipeline) prepareLoaded(ctx context.Context, d *Dataset) (_ *Run, err error) {
	// Honor ctx like the fresh path does: before the (potentially large)
	// verification pass, and again between the reconstruction's heavy steps.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, err := snapshot.OpenReader(p.cfg.LoadSnapshot)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil || !p.cfg.OutOfCore {
			r.Close()
		}
	}()
	if err := p.checkSnapshotMeta(r.Meta()); err != nil {
		return nil, err
	}
	task, err := p.task(d)
	if err != nil {
		return nil, err
	}
	srcVocab, tgtVocab := r.Vocabs()
	if err := checkSnapshotVocab(d, task, srcVocab, tgtVocab); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := p.cfg.engine()
	var tables *engine.Tables
	if k.OutOfCore {
		tables, err = engine.FromReader(ctx, r, k)
	} else {
		var snap *snapshot.Snapshot
		if snap, err = r.Materialize(); err == nil {
			tables, err = engine.FromSnapshot(ctx, snap, k)
		}
	}
	if err != nil {
		return nil, err
	}
	run, err := p.assemble(ctx, d, nil, task, nil, tables, k)
	if err != nil {
		return nil, err
	}
	if p.cfg.OutOfCore {
		run.OutOfCoreMode, run.closer = "mmap", sync.OnceValue(r.Close)
		if tables.Stream.OutOfCore() {
			run.OutOfCoreMode = "readat"
		}
	}
	return run, nil
}

// checkSnapshotMeta verifies a snapshot's recorded configuration against the
// run's.
func (p *Pipeline) checkSnapshotMeta(meta snapshot.Meta) error {
	if got, want := meta.Metric, uint32(p.cfg.Metric); got != want {
		return fmt.Errorf("%w: snapshot was prepared for metric %v, run requests %v",
			ErrSnapshotMismatch, sim.Metric(got), p.cfg.Metric)
	}
	if got, want := meta.Setting, uint32(p.cfg.Setting); got != want {
		return fmt.Errorf("%w: snapshot was prepared for setting %v, run requests %v",
			ErrSnapshotMismatch, Setting(got), p.cfg.Setting)
	}
	if got, want := meta.Features, uint32(p.cfg.Features); got != want {
		return fmt.Errorf("%w: snapshot was prepared for features %v, run requests %v",
			ErrSnapshotMismatch, FeatureMode(got), p.cfg.Features)
	}
	return nil
}

// checkSnapshotVocab verifies a snapshot's entity vocabularies name exactly
// the dataset task's rows — the identity check that catches a snapshot
// applied to the wrong (or reshuffled) dataset.
func checkSnapshotVocab(d *Dataset, task *Task, srcVocab, tgtVocab []string) error {
	if len(task.SourceIDs) != len(srcVocab) || len(task.TargetIDs) != len(tgtVocab) {
		return fmt.Errorf("%w: snapshot holds %d×%d task rows, dataset task is %d×%d",
			ErrSnapshotMismatch, len(srcVocab), len(tgtVocab), len(task.SourceIDs), len(task.TargetIDs))
	}
	for i, id := range task.SourceIDs {
		if name := d.Source.EntityName(id); name != srcVocab[i] {
			return fmt.Errorf("%w: source row %d is %q in the snapshot but %q in the dataset",
				ErrSnapshotMismatch, i, srcVocab[i], name)
		}
	}
	for i, id := range task.TargetIDs {
		if name := d.Target.EntityName(id); name != tgtVocab[i] {
			return fmt.Errorf("%w: target row %d is %q in the snapshot but %q in the dataset",
				ErrSnapshotMismatch, i, tgtVocab[i], name)
		}
	}
	return nil
}

// task builds the evaluation task for the configured setting.
func (p *Pipeline) task(d *Dataset) (*Task, error) {
	switch p.cfg.Setting {
	case SettingOneToOne:
		return eval.OneToOneTask(d)
	case SettingUnmatchable:
		return eval.UnmatchableTask(d)
	case SettingNonOneToOne:
		return eval.NonOneToOneTask(d)
	default:
		return nil, fmt.Errorf("entmatcher: unknown setting %v", p.cfg.Setting)
	}
}

// WithContext returns a copy of the run whose match context carries ctx:
// deadlines and cancellation on ctx then apply to every subsequent Match
// call on the returned run. The underlying task, similarity matrix and side
// inputs are shared, not copied.
func (r *Run) WithContext(ctx context.Context) *Run {
	cp, mctx := *r, *r.Ctx
	mctx.Ctx = ctx
	cp.Ctx = &mctx
	return &cp
}

// Match runs a matcher on the prepared run and scores it against the gold
// pairs. The match context is validated first (rejecting NaN/Inf-poisoned
// or empty similarity matrices with typed errors) and the matcher runs
// under panic recovery: an internal panic comes back as a *core.PanicError
// naming the matcher instead of crashing the process.
func (r *Run) Match(m Matcher) (*MatchResult, Metrics, error) {
	if err := core.ValidateContext(r.Ctx); err != nil {
		return nil, Metrics{}, err
	}
	res, err := core.SafeMatch(m, r.Ctx)
	if err != nil {
		return nil, Metrics{}, err
	}
	return res, r.Task.Evaluate(res), nil
}

// MatchWithAbstention is the § 5.1 recipe with a self-calibrating
// abstention score: dummy columns with capacity for every potentially
// unmatchable row are appended at the q-quantile of the validation rows'
// maximum similarities (all validation rows are matchable, so the quantile
// estimates the low end of genuine-match scores; no test labels are used).
// Requires a pipeline prepared WithValidation. q = 0.3 is the calibrated
// default used by the benchmark harness; values outside [0, 1] are clamped
// to it, and a NaN q is an ErrBadConfig.
func (r *Run) MatchWithAbstention(m Matcher, q float64) (*MatchResult, Metrics, error) {
	if r.Ctx.Valid == nil {
		return nil, Metrics{}, fmt.Errorf("entmatcher: MatchWithAbstention requires WithValidation")
	}
	if math.IsNaN(q) {
		return nil, Metrics{}, badConfig("abstention quantile q is NaN")
	}
	score := core.DummyScoreFromValidation(r.Ctx.Valid.S, q)
	// The padded view hides any candidate-graph producer in Ctx.Stream, so
	// sparse matchers build from the exact tiles.
	ctx := core.PadDummies(r.Ctx, r.AbstentionColumns(), score)
	if err := core.ValidateContext(ctx); err != nil {
		return nil, Metrics{}, err
	}
	res, err := core.SafeMatch(m, ctx)
	if err != nil {
		return nil, Metrics{}, err
	}
	return res, r.Task.Evaluate(res), nil
}

// AbstentionColumns is the number of dummy columns MatchWithAbstention
// appends: capacity for a third of the rows to abstain, plus the deficit of
// columns when there are more rows than columns. A matcher run through it
// sees this many columns beyond Dims.
func (r *Run) AbstentionColumns() int {
	rows, cols := r.Dims()
	return rows/3 + max(rows-cols, 0)
}
