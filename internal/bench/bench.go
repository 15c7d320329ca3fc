// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§ 4 and § 5): dataset construction,
// embedding preparation, matcher execution, metric collection and text
// rendering, with caching so that experiments sharing a configuration reuse
// datasets and embeddings.
//
// Each paper artifact is one Experiment, addressable by ID (table3..table8,
// figure4..figure7, deepem, plus the ablations DESIGN.md calls out). The
// cmd/benchtab binary runs them and prints the tables; bench_test.go exposes
// them as testing.B benchmarks.
package bench

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"entmatcher"
	"entmatcher/internal/core"
	"entmatcher/internal/datagen"
	"entmatcher/internal/embed"
	"entmatcher/internal/kg"
)

// Config scales and parameterizes the whole experiment suite. Scale factors
// are relative to the paper's dataset sizes (Table 3); EXPERIMENTS.md
// records the factors used for the published reproduction run.
type Config struct {
	// ScaleMedium scales DBP15K and SRPRS (15K gold links at 1.0).
	ScaleMedium float64
	// ScaleLarge scales DWY100K (100K gold links at 1.0).
	ScaleLarge float64
	// ScaleUnmatchable scales the DBP15K+ datasets of Table 7.
	ScaleUnmatchable float64
	// ScaleMul scales FB_DBP_MUL (§ 5.2).
	ScaleMul float64
	// SinkhornL is the Sinkhorn iteration count (the paper's tuned l=100).
	SinkhornL int
	// CSLSK is the CSLS neighborhood size (the paper's best k=1).
	CSLSK int
	// RInfPBBlock is the candidate block size of RInf-pb.
	RInfPBBlock int
	// AbstentionQ is the validation quantile of the § 5.1 dummy score.
	AbstentionQ float64
	// MemoryBudgetBytes is the per-algorithm working-memory budget behind
	// Table 6's "Mem." feasibility column, prorated from the paper's
	// environment to the configured scale.
	MemoryBudgetBytes int64
	// StreamLarge runs the large-scale table (table6) on the tiled streaming
	// similarity engine: the dense score matrix is never allocated and only
	// the streaming-capable matchers (DInf, CSLS, Sink.-mb) are measured.
	StreamLarge bool
	// RunTimeout is the per-matcher wall-clock budget. When positive, each
	// matcher run happens inside a degradation chain (matcher → RInf-pb →
	// DInf) so an over-budget algorithm yields a cheaper tier's answer
	// instead of stalling the whole suite; degradations are recorded on the
	// Env. Zero means unbounded (the default — published tables must come
	// from the requested algorithms).
	RunTimeout time.Duration
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// DefaultConfig returns the scales used for the recorded reproduction run
// on a 1-CPU container (see EXPERIMENTS.md).
func DefaultConfig() Config {
	return Config{
		ScaleMedium:      0.20,
		ScaleLarge:       0.10,
		ScaleUnmatchable: 0.10,
		ScaleMul:         0.20,
		SinkhornL:        core.DefaultSinkhornIterations,
		CSLSK:            1,
		RInfPBBlock:      50,
		AbstentionQ:      0.30,
		// The paper's server fits ~2 extra matrices for a 70K×70K task;
		// prorated to our default large scale this is ~2.2× the similarity
		// matrix of the large task (7000² × 8 B ≈ 0.39 GB).
		MemoryBudgetBytes: 900 << 20,
		Log:               nil,
	}
}

// QuickConfig returns a configuration small enough for smoke tests and
// testing.B benchmarks.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.ScaleMedium = 0.04
	cfg.ScaleLarge = 0.02
	cfg.ScaleUnmatchable = 0.04
	cfg.ScaleMul = 0.05
	cfg.MemoryBudgetBytes = 900 << 20 / 25
	return cfg
}

func (c *Config) logf(format string, args ...interface{}) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Env caches datasets, embeddings and prepared runs across experiments, and
// collects degradation notes when Config.RunTimeout forces matchers onto
// cheaper fallback tiers.
type Env struct {
	datasets   map[string]*entmatcher.Dataset
	embeddings map[string]*entmatcher.Embeddings
	runs       map[string]*entmatcher.Run

	mu           sync.Mutex
	degradations []string
}

// NewEnv returns an empty cache environment.
func NewEnv() *Env {
	return &Env{
		datasets:   make(map[string]*entmatcher.Dataset),
		embeddings: make(map[string]*entmatcher.Embeddings),
		runs:       make(map[string]*entmatcher.Run),
	}
}

// Dataset returns (generating once) the scaled benchmark for a profile.
func (e *Env) Dataset(p datagen.Profile, scale float64) (*entmatcher.Dataset, error) {
	key := fmt.Sprintf("std|%s|%g", p.Name, scale)
	if d, ok := e.datasets[key]; ok {
		return d, nil
	}
	d, err := datagen.Generate(p.Scaled(scale))
	if err != nil {
		return nil, err
	}
	e.datasets[key] = d
	return d, nil
}

// MulDataset returns (generating once) the scaled non 1-to-1 benchmark.
func (e *Env) MulDataset(p datagen.MulProfile, scale float64) (*entmatcher.Dataset, error) {
	key := fmt.Sprintf("mul|%s|%g", p.Name, scale)
	if d, ok := e.datasets[key]; ok {
		return d, nil
	}
	d, err := datagen.GenerateNonOneToOne(p.Scaled(scale))
	if err != nil {
		return nil, err
	}
	e.datasets[key] = d
	return d, nil
}

// runKey identifies a prepared run in the cache. The dataset pointer is
// part of the key: profiles share names across scales, and reusing another
// instance's embeddings or tasks would silently distort results.
func runKey(d *entmatcher.Dataset, pc entmatcher.PipelineConfig) string {
	// Streaming is the only engine knob a paper experiment sets (table6
	// under -stream); a new one must join the key.
	return fmt.Sprintf("%p|%v|%v|%v|%v|%v", d, pc.Model, pc.Features, pc.Setting, pc.WithValidation, pc.Streaming)
}

// embKey identifies a cached embedding table, again per dataset instance.
func embKey(d *entmatcher.Dataset, pc entmatcher.PipelineConfig) string {
	return fmt.Sprintf("%p|%v|%v", d, pc.Model, pc.Features)
}

// Run prepares (once) a pipeline run for the dataset and configuration,
// reusing cached embeddings across settings.
func (e *Env) Run(d *entmatcher.Dataset, pc entmatcher.PipelineConfig) (*entmatcher.Run, error) {
	rk := runKey(d, pc)
	if r, ok := e.runs[rk]; ok {
		return r, nil
	}
	ek := embKey(d, pc)
	emb, ok := e.embeddings[ek]
	if !ok {
		var err error
		emb, err = e.encode(d, pc)
		if err != nil {
			return nil, err
		}
		e.embeddings[ek] = emb
	}
	run, err := entmatcher.NewPipeline(pc).PrepareWithEmbeddings(d, emb)
	if err != nil {
		return nil, err
	}
	e.runs[rk] = run
	return run, nil
}

// encode produces the feature embeddings for a pipeline configuration.
func (e *Env) encode(d *entmatcher.Dataset, pc entmatcher.PipelineConfig) (*entmatcher.Embeddings, error) {
	switch pc.Features {
	case entmatcher.FeatureStructure:
		return embed.Encode(d, embed.DefaultConfig(pc.Model))
	case entmatcher.FeatureName:
		return embed.EncodeNames(d, embed.DefaultNameConfig())
	case entmatcher.FeatureFused:
		structural, err := embed.Encode(d, embed.DefaultConfig(pc.Model))
		if err != nil {
			return nil, err
		}
		names, err := embed.EncodeNames(d, embed.DefaultNameConfig())
		if err != nil {
			return nil, err
		}
		return embed.Fuse(names, structural, 0.5, 0.5)
	default:
		return nil, fmt.Errorf("bench: unknown feature mode %v", pc.Features)
	}
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID addresses the experiment (e.g. "table4", "figure6").
	ID string
	// Title describes the paper artifact it regenerates.
	Title string
	// Run executes the experiment and returns its rendered tables.
	Run func(cfg *Config, env *Env) ([]*Table, error)
}

// Experiments returns the full registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table3", Title: "Table 3: dataset statistics", Run: runTable3},
		{ID: "table4", Title: "Table 4: F1 with structural information only", Run: runTable4},
		{ID: "table5", Title: "Table 5: F1 with name / fused information", Run: runTable5},
		{ID: "table6", Title: "Table 6: large-scale (DWY100K profile) F1, time, memory", Run: runTable6},
		{ID: "table7", Title: "Table 7: unmatchable entities (DBP15K+)", Run: runTable7},
		{ID: "table8", Title: "Table 8: non 1-to-1 alignment (FB_DBP_MUL)", Run: runTable8},
		{ID: "figure4", Title: "Figure 4: STD of top-5 pairwise scores", Run: runFigure4},
		{ID: "figure5", Title: "Figure 5: time and memory comparison", Run: runFigure5},
		{ID: "figure6", Title: "Figure 6: CSLS F1 vs k", Run: runFigure6},
		{ID: "figure7", Title: "Figure 7: Sinkhorn F1 vs l", Run: runFigure7},
		{ID: "deepem", Title: "Section 4.3: DL-based EM comparison", Run: runDeepEM},
		{ID: "extensions", Title: "Section 6 future directions: ProbInf and mini-batch Sinkhorn", Run: runExtensions},
		{ID: "casestudy", Title: "Appendix D: hub-conflict case study (explainability)", Run: runCaseStudy},
		{ID: "hits", Title: "Appendix: Hits@k / MRR ranking quality per setting", Run: runHits},
		{ID: "appendixC", Title: "Appendix C: CSLS k under non 1-to-1 alignment", Run: runAppendixC},
		{ID: "example1", Title: "Example 1 / Figure 1: the three embedding-matching regimes", Run: runExample1},
		{ID: "ablation-rank", Title: "Ablation: RInf ranking vs CSLS(k=1)", Run: runAblationRank},
		{ID: "ablation-tau", Title: "Ablation: Sinkhorn temperature sensitivity", Run: runAblationTau},
		{ID: "ablation-dummy", Title: "Ablation: Hungarian abstention under unmatchable entities", Run: runAblationDummy},
		{ID: "ablation-rl", Title: "Ablation: RL confident-pair pre-filter", Run: runAblationRL},
		{ID: "ablation-seeds", Title: "Ablation: training-seed fraction", Run: runAblationSeeds},
	}
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs in registry order.
func IDs() []string {
	exps := Experiments()
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.ID
	}
	return out
}

// noteDegradation records that a matcher run degraded to a fallback tier.
func (e *Env) noteDegradation(note string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.degradations = append(e.degradations, note)
}

// DegradationNotes returns every degradation recorded so far, in order. A
// non-empty result means at least one table cell was produced by a cheaper
// tier than its row label says.
func (e *Env) DegradationNotes() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.degradations...)
}

// fallbackChain wraps m for a budgeted run on run: the ladder of the run's
// matcher table (m → RInf-pb → DInf on the dense matrix, m → streaming DInf
// without it) under cfg.RunTimeout. With no budget configured, m is returned
// unchanged.
func fallbackChain(cfg *Config, run *entmatcher.Run, m entmatcher.Matcher) entmatcher.Matcher {
	return runTable(run).WithBudget(m, cfg.RunTimeout, core.MatcherParams{C: cfg.RInfPBBlock})
}

// runTable is the matcher table of a bench run: the tables prepare dense or
// streaming, never candidate graphs.
func runTable(run *entmatcher.Run) *core.MatcherTable {
	if run.S == nil {
		return core.OnStream
	}
	return core.OnDense
}

// matchBudgeted runs m on run under cfg.RunTimeout (if any), recording a
// degradation note on env when a cheaper tier answered. Every timed match in
// the tables means "one matcher, cold" — Table 6 and Figure 5 compare
// matchers by it — so candidate graphs an earlier matcher left in the run's
// memo are dropped first.
func matchBudgeted(cfg *Config, env *Env, run *entmatcher.Run, m entmatcher.Matcher) (*entmatcher.MatchResult, entmatcher.Metrics, error) {
	run.ForgetGraphs()
	res, metrics, err := run.Match(fallbackChain(cfg, run, m))
	noteIfDegraded(cfg, env, m, res)
	return res, metrics, err
}

// abstainBudgeted is matchBudgeted for the dummy-column abstention path.
func abstainBudgeted(cfg *Config, env *Env, run *entmatcher.Run, m entmatcher.Matcher, q float64) (*entmatcher.MatchResult, entmatcher.Metrics, error) {
	res, metrics, err := run.MatchWithAbstention(fallbackChain(cfg, run, m), q)
	noteIfDegraded(cfg, env, m, res)
	return res, metrics, err
}

func noteIfDegraded(cfg *Config, env *Env, requested entmatcher.Matcher, res *entmatcher.MatchResult) {
	if res == nil || len(res.DegradedFrom) == 0 {
		return
	}
	note := fmt.Sprintf("%s degraded to %s under budget %v (tried: %s)",
		requested.Name(), res.Matcher, cfg.RunTimeout, strings.Join(res.DegradedFrom, ", "))
	cfg.logf("bench: %s", note)
	env.noteDegradation(note)
}

// matcherSet returns the paper's seven algorithms configured per cfg, in
// Table 2 row order.
func matcherSet(cfg *Config) []entmatcher.Matcher {
	return []entmatcher.Matcher{
		entmatcher.NewDInf(),
		entmatcher.NewCSLS(cfg.CSLSK),
		entmatcher.NewRInf(),
		entmatcher.NewSinkhorn(cfg.SinkhornL),
		entmatcher.NewHungarian(),
		entmatcher.NewSMat(),
		entmatcher.NewRL(),
	}
}

// datasetStats adapts kg stats for rendering.
func datasetStats(d *entmatcher.Dataset) (src, tgt kg.Stats) {
	return d.Source.Stats(), d.Target.Stats()
}
