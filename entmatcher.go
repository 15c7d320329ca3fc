// Package entmatcher is a Go library for matching knowledge graphs in
// entity embedding spaces, reproducing the system and experimental study of
// "Matching Knowledge Graphs in Entity Embedding Spaces: An Experimental
// Study" (Zeng, Zhao, Tan, Tang, Cheng; ICDE 2024 / TKDE).
//
// The library covers the full embedding-based entity-alignment pipeline:
//
//   - synthetic benchmark generation matching the paper's dataset profiles
//     (DBP15K, SRPRS, DWY100K, DBP15K+, FB_DBP_MUL),
//   - a pure-Go representation-learning substrate (structural anchor
//     propagation standing in for GCN/RREA, a character-n-gram name
//     encoder, and feature fusion),
//   - pairwise similarity computation (cosine, Euclidean, Manhattan),
//   - the seven embedding-matching algorithms of the paper's Table 2 —
//     DInf, CSLS, RInf (plus the RInf-wr and RInf-pb variants), Sinkhorn,
//     Hungarian, SMat and RL — behind one Matcher interface, plus the
//     loosely-coupled ScoreTransform/Decider building blocks to assemble
//     new ones,
//   - evaluation under the 1-to-1, unmatchable-entity and non 1-to-1
//     settings.
//
// # Quickstart
//
//	pair, _ := entmatcher.GenerateBenchmark(entmatcher.ProfileDBP15KZhEn, 0.05)
//	run, _ := entmatcher.NewPipeline(entmatcher.PipelineConfig{}).Prepare(pair)
//	res, metrics, _ := run.Match(entmatcher.NewHungarian())
//	fmt.Println(res.Matcher, metrics.F1)
//
// See examples/ for runnable programs and cmd/benchtab for the harness that
// regenerates every table and figure of the paper.
package entmatcher

import (
	"time"

	"entmatcher/internal/core"
	"entmatcher/internal/datagen"
	"entmatcher/internal/embed"
	"entmatcher/internal/eval"
	"entmatcher/internal/kg"
	"entmatcher/internal/matrix"
	"entmatcher/internal/sim"
)

// Re-exported core types: the matching layer.
type (
	// Matcher is an algorithm for matching KGs in entity embedding spaces.
	Matcher = core.Matcher
	// MatchContext carries the similarity matrix and optional side inputs.
	MatchContext = core.Context
	// MatchResult is a matcher's output with instrumentation.
	MatchResult = core.Result
	// MatchedPair is one aligned (row, column) pair.
	MatchedPair = core.Pair
	// ScoreTransform is the pairwise-score stage of a composite matcher.
	ScoreTransform = core.ScoreTransform
	// Decider is the matching stage of a composite matcher.
	Decider = core.Decider
	// RLConfig parameterizes the RL matcher.
	RLConfig = core.RLConfig
	// PanicError is the error produced when a matcher panics: the driver
	// recovers the panic and reports it with the matcher's name and stack.
	PanicError = core.PanicError

	// Concrete score transforms, for composing custom matchers.
	NoneTransform       = core.NoneTransform
	CSLSTransform       = core.CSLSTransform
	ReciprocalTransform = core.ReciprocalTransform
	SinkhornTransform   = core.SinkhornTransform

	// Concrete deciders, for composing custom matchers.
	GreedyDecider      = core.GreedyDecider
	HungarianDecider   = core.HungarianDecider
	GaleShapleyDecider = core.GaleShapleyDecider
)

// Paper-tuned hyper-parameter defaults.
const (
	// DefaultSinkhornIterations is the paper's tuned l = 100.
	DefaultSinkhornIterations = core.DefaultSinkhornIterations
	// DefaultSinkhornTau is the calibrated softmax temperature for cosine
	// inputs.
	DefaultSinkhornTau = core.DefaultSinkhornTau
)

// Re-exported dataset and evaluation types.
type (
	// Dataset is a benchmark KG pair with gold links and optional names.
	Dataset = kg.Pair
	// Graph is a knowledge graph.
	Graph = kg.Graph
	// DatasetProfile describes a synthetic benchmark's statistical shape.
	DatasetProfile = datagen.Profile
	// MulDatasetProfile describes a non 1-to-1 benchmark.
	MulDatasetProfile = datagen.MulProfile
	// Metrics is the precision / recall / F1 triple.
	Metrics = eval.Metrics
	// Task is one alignment problem in matrix index space.
	Task = eval.Task
	// Embeddings bundles unified source and target entity embeddings.
	Embeddings = embed.Embeddings
	// Dense is the dense matrix type used throughout.
	Dense = matrix.Dense
	// SimilarityStream is the tiled streaming similarity engine: it produces
	// the score matrix in cache-sized tiles computed on the fly from the
	// embedding tables, so the dense matrix is never materialized. Runs
	// prepared with PipelineConfig.Streaming carry one in Run.Stream.
	SimilarityStream = sim.Stream
	// TileSource is the abstract tile producer behind streaming runs.
	TileSource = matrix.TileSource
	// TileConsumer folds streamed score tiles into running state.
	TileConsumer = matrix.TileConsumer
)

// Encoder models, mirroring the paper's representation-learning choices.
const (
	// ModelGCN is the weaker baseline encoder (the paper's G- settings).
	ModelGCN = embed.ModelGCN
	// ModelRREA is the stronger encoder (the paper's R- settings).
	ModelRREA = embed.ModelRREA
)

// Similarity metrics.
const (
	// MetricCosine is cosine similarity (the paper's main setting).
	MetricCosine = sim.Cosine
	// MetricEuclidean is negated Euclidean distance.
	MetricEuclidean = sim.Euclidean
	// MetricManhattan is negated Manhattan distance.
	MetricManhattan = sim.Manhattan
)

// The ten dataset profiles of the paper's Table 3.
var (
	ProfileDBP15KZhEn = datagen.DBP15KZhEn
	ProfileDBP15KJaEn = datagen.DBP15KJaEn
	ProfileDBP15KFrEn = datagen.DBP15KFrEn
	ProfileSRPRSFrEn  = datagen.SRPRSFrEn
	ProfileSRPRSDeEn  = datagen.SRPRSDeEn
	ProfileSRPRSDbpWd = datagen.SRPRSDbpWd
	ProfileSRPRSDbpYg = datagen.SRPRSDbpYg
	ProfileDWY100KWd  = datagen.DWY100KDbpWd
	ProfileDWY100KYg  = datagen.DWY100KDbpYg
	ProfileFBDBPMul   = datagen.FBDBPMul
)

// Matcher constructors — the algorithms of the paper's Table 2.

// NewDInf returns the DInf baseline: raw similarity + greedy matching.
func NewDInf() Matcher { return core.NewDInf() }

// NewCSLS returns the CSLS algorithm with neighborhood size k (k=1 is the
// paper's best 1-to-1 setting; see Figure 6).
func NewCSLS(k int) Matcher { return core.NewCSLS(k) }

// NewRInf returns the reciprocal embedding matching algorithm.
func NewRInf() Matcher { return core.NewRInf() }

// NewRInfWR returns the RInf variant without the ranking process.
func NewRInfWR() Matcher { return core.NewRInfWR() }

// NewRInfPB returns the progressive-blocking RInf variant with block size c:
// reciprocal ranking within each entity's top-c block, the NewRInfSparse
// body labelled "RInf-pb". It holds no n×n array.
func NewRInfPB(c int) Matcher { return core.NewRInfPB(c) }

// NewSinkhorn returns the Sinkhorn-operation matcher with l iterations
// (the paper tunes l=100; see Figure 7).
func NewSinkhorn(l int) Matcher { return core.NewSinkhorn(l) }

// NewHungarian returns the Hungarian (linear assignment) matcher.
func NewHungarian() Matcher { return core.NewHungarian() }

// NewSMat returns the Gale-Shapley stable-matching algorithm.
func NewSMat() Matcher { return core.NewSMat() }

// NewRL returns the RL-based collective matcher with default configuration.
func NewRL() Matcher { return core.NewRL(core.DefaultRLConfig()) }

// NewRLWithConfig returns the RL matcher with a custom configuration.
func NewRLWithConfig(cfg RLConfig) Matcher { return core.NewRL(cfg) }

// NewProbInf returns the probabilistic multi-match algorithm (the § 6
// future direction (5) of the paper): every pair whose bidirectional match
// probability exceeds threshold is emitted, enabling 1-to-many predictions
// and principled abstention.
func NewProbInf(threshold float64) Matcher { return core.NewProbInf(threshold) }

// NewSinkhornBlocked returns the ClusterEA-style mini-batch Sinkhorn
// matcher (the § 6 scalability direction): the Sinkhorn operation runs
// inside pivot-clustered mini-batches, bounding working memory. On a
// streaming run each mini-batch is computed directly from the embedding
// tables and the dense score matrix never exists.
func NewSinkhornBlocked(batchSize, l int) Matcher { return core.NewSinkhornBlocked(batchSize, l) }

// NewDInfStream returns DInf running on the tiled streaming engine: one
// pass over the score tiles with a fused running argmax, O(rows) extra
// memory. On runs prepared with PipelineConfig.Streaming this is the greedy
// baseline; it also accepts dense runs (the matrix is re-sliced into tiles).
func NewDInfStream() Matcher { return core.NewDInfStream() }

// NewCSLSStream returns CSLS running on the tiled streaming engine in two
// fused passes (φ statistics, then rescaled argmax) with O((rows+cols)·k)
// extra memory — the dense matrix and its rescaled copy never exist.
func NewCSLSStream(k int) Matcher { return core.NewCSLSStream(k) }

// Sparse candidate-graph matchers: each streams the scores once into a
// top-C-per-entity candidate graph (O(n·C) edges) and runs the matching
// logic over the edges alone, which is what lets RInf, Hungarian and SMat —
// the paper's memory-heaviest algorithms — run at DWY100K scale. At
// C >= max(rows, cols) each twin reproduces its dense counterpart
// bit-identically (pinned by the conformance suite); smaller budgets trade
// a little recall for near-linear time and memory. They accept both dense
// and streaming runs (PipelineConfig.CandidateBudget prepares streaming).

// NewRInfSparse returns the sparse reciprocal matcher (RInf) with candidate
// budget c. NewRInfPB(c) is the same body under the paper's label; both
// read the scores in one streaming pass and need no dense matrix.
func NewRInfSparse(c int) Matcher { return core.NewRInfSparse(c) }

// NewCSLSSparse returns sparse CSLS with candidate budget c and φ
// neighborhood k.
func NewCSLSSparse(c, k int) Matcher { return core.NewCSLSSparse(c, k) }

// NewSinkhornSparse returns the Sinkhorn operation restricted to a top-c
// candidate graph, with l normalization iterations.
func NewSinkhornSparse(c, l int) Matcher { return core.NewSinkhornSparse(c, l) }

// NewHungarianSparse returns optimal assignment restricted to a top-c
// candidate graph; rows whose candidates are exhausted fall back to a
// virtual dummy and abstain.
func NewHungarianSparse(c int) Matcher { return core.NewHungarianSparse(c) }

// NewSMatSparse returns stable matching over truncated top-c preference
// lists; rows that exhaust their list abstain.
func NewSMatSparse(c int) Matcher { return core.NewSMatSparse(c) }

// NewSimilarityStream builds a tiled streaming similarity engine over two
// embedding tables, for driving streaming matchers outside the pipeline.
func NewSimilarityStream(src, tgt *Dense, metric sim.Metric) (*SimilarityStream, error) {
	return sim.NewStream(src, tgt, metric)
}

// NewCustomMatcher assembles a matcher from a score transform and a
// decider, mirroring the EntMatcher library's loosely-coupled modules.
func NewCustomMatcher(t ScoreTransform, d Decider, name string) Matcher {
	return core.NewComposite(t, d, name)
}

// NewFallback chains matchers into a graceful-degradation ladder under a
// shared wall-clock budget: each tier gets an even share of the remaining
// budget and the chain moves on when a tier times out, errors or panics.
// The final tier runs without the budget deadline, so a chain ending in a
// cheap matcher (e.g. NewDInf) always answers. The answering Result records
// the failed tiers in DegradedFrom.
//
//	entmatcher.NewFallback(time.Second, entmatcher.NewHungarian(),
//	    entmatcher.NewRInfPB(50), entmatcher.NewDInf())
func NewFallback(budget time.Duration, tiers ...Matcher) Matcher {
	return core.NewFallback(budget, tiers...)
}

// Typed robustness errors of the matching stack, for errors.Is checks.
var (
	// ErrEmptyMatrix reports a 0×N or N×0 similarity matrix.
	ErrEmptyMatrix = core.ErrEmptyMatrix
	// ErrNonFiniteScores reports NaN or ±Inf in the similarity matrix.
	ErrNonFiniteScores = core.ErrNonFinite
	// ErrNonFiniteEmbeddings reports NaN or ±Inf in an embedding table.
	ErrNonFiniteEmbeddings = sim.ErrNonFinite
	// ErrEmptyEmbeddings reports an embedding table with no rows.
	ErrEmptyEmbeddings = sim.ErrEmptyEmbeddings
)

// AllMatchers returns one instance of each of the paper's seven algorithms
// in Table 2 row order, with the paper's default hyper-parameters.
func AllMatchers() []Matcher {
	return []Matcher{
		NewDInf(),
		NewCSLS(1),
		NewRInf(),
		NewSinkhorn(core.DefaultSinkhornIterations),
		NewHungarian(),
		NewSMat(),
		NewRL(),
	}
}

// GenerateBenchmark generates the named benchmark profile at the given
// scale factor (1.0 = the paper's full size; smaller factors shrink entity
// counts while preserving degree, heterogeneity and noise).
func GenerateBenchmark(p DatasetProfile, scale float64) (*Dataset, error) {
	return datagen.Generate(p.Scaled(scale))
}

// GenerateNonOneToOneBenchmark generates a FB_DBP_MUL-style non 1-to-1
// benchmark at the given scale factor.
func GenerateNonOneToOneBenchmark(p MulDatasetProfile, scale float64) (*Dataset, error) {
	return datagen.GenerateNonOneToOne(p.Scaled(scale))
}

// LoadDataset reads a dataset previously written with SaveDataset (OpenEA-
// compatible TSV layout).
func LoadDataset(dir, name string) (*Dataset, error) { return kg.ReadPair(dir, name) }

// SaveDataset writes a dataset to dir in the OpenEA-compatible TSV layout.
func SaveDataset(dir string, d *Dataset) error { return kg.WritePair(dir, d) }

// EncodeStructure produces unified structural embeddings with the given
// model's calibrated defaults.
func EncodeStructure(d *Dataset, model embed.Model) (*Embeddings, error) {
	return embed.Encode(d, embed.DefaultConfig(model))
}

// SaveEmbeddings writes the embedding tables to two word2vec-style text
// files (URI followed by components), the interchange format of external
// EA toolchains.
func SaveEmbeddings(srcPath, tgtPath string, d *Dataset, e *Embeddings) error {
	return embed.Save(srcPath, tgtPath, d, e)
}

// LoadEmbeddings reads externally produced embedding tables for the
// dataset, enabling the train-anywhere / match-here workflow.
func LoadEmbeddings(srcPath, tgtPath string, d *Dataset) (*Embeddings, error) {
	return embed.Load(srcPath, tgtPath, d)
}

// EncodeNames produces unified name embeddings from the dataset's surface
// forms.
func EncodeNames(d *Dataset) (*Embeddings, error) {
	return embed.EncodeNames(d, embed.DefaultNameConfig())
}

// FuseEmbeddings concatenates two embedding spaces with the given weights
// (the paper's NR- setting).
func FuseEmbeddings(a, b *Embeddings, weightA, weightB float64) (*Embeddings, error) {
	return embed.Fuse(a, b, weightA, weightB)
}

// SimilarityMatrix computes the pairwise score matrix between two embedding
// tables under the metric.
func SimilarityMatrix(src, tgt *Dense, metric sim.Metric) (*Dense, error) {
	return sim.Matrix(src, tgt, metric)
}

// Score compares predicted pairs with gold pairs.
func Score(predicted, gold []MatchedPair) Metrics { return eval.Score(predicted, gold) }
