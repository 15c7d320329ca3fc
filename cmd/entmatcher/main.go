// Command entmatcher runs the embedding-matching pipeline on a dataset
// directory (as written by cmd/datagen or any OpenEA-style dump with the
// entmatcher file layout) and reports per-algorithm metrics.
//
// Usage:
//
//	entmatcher -data ./data/D-Z                       # all 7 algorithms, RREA
//	entmatcher -data ./data/D-Z -model gcn -m DInf,Hun.
//	entmatcher -data ./data/D-Z -features name        # N- setting
//	entmatcher -data ./data/dz+ -setting unmatchable  # § 5.1 evaluation
//	entmatcher -data ./data/mul -setting non1to1      # § 5.2 evaluation
//	entmatcher -data ./data/100k -stream              # tiled streaming engine
//	entmatcher -data ./data/100k -mem-budget 2048     # stream if dense > 2 GiB
//	entmatcher -data ./data/100k -cand 64             # sparse candidate graphs
//	entmatcher -data ./data/100k -cand 64 -ann 316    # IVF approximate candidates
//	entmatcher -data ./data/100k -cand 64 -ann 316 -nprobe 40  # higher recall
//	entmatcher -data ./data/100k -cand 64 -quant              # SQ8 scan + exact re-rank
//	entmatcher -data ./data/100k -cand 64 -quant -rerank-factor 0  # quantized-only
//	entmatcher -data ./data/100k -cand 64 -save-snapshot p.snap  # persist prep
//	entmatcher -data ./data/100k -cand 64 -load-snapshot p.snap  # skip prep
//	entmatcher -data ./data/100k -auto                 # planner picks the engine
//	entmatcher -data ./data/100k -auto -explain        # ... and shows its work
//	entmatcher -data ./data/100k -auto -target-recall 0.8  # allow approximate plans
//	entmatcher -data ./data/1m -cand 8 -shards 64      # co-clustered sharded matching
//	entmatcher -data ./data/1m -cand 8 -shards 64 -load-snapshot p.snap -out-of-core
//
// With -stream (or when -mem-budget forces it) the score matrix is computed
// in cache-sized tiles and never materialized; the streaming-capable
// matchers (DInf, CSLS, Sink.-mb) run fused against the tile stream.
//
// With -cand C the run also streams, but matching happens on sparse top-C
// candidate graphs, which unlocks the paper's memory-heavy collective
// matchers (RInf, Hun., SMat) at scales where the dense matrix cannot exist.
// At C >= the larger side the sparse matchers reproduce their dense
// counterparts exactly; smaller C trades a little recall for O(n·C) cost.
//
// With -ann K (requires -cand) the top-C graphs come from a pure-Go IVF
// index — a K-cell k-means quantizer over the normalized embeddings —
// instead of the exhaustive streaming pass, making candidate generation
// sub-quadratic. -nprobe trades recall for speed; at -nprobe K the result is
// bit-identical to the exact build.
//
// With -quant (requires -cand) every candidate scan — IVF slabs under -ann,
// the exhaustive pass otherwise — ranks with int8 SQ8 codes ⅛ the size of
// the float64 tables, then re-scores an over-fetched pool exactly so the
// emitted graphs stay bit-identical at the default -rerank-factor 4.
// -rerank-factor 0 disables the exact re-rank (quantized-only scores).
//
// With -shards S (requires -cand) both corpora are partitioned by an IVF
// coarse quantizer into S co-clustered shards; candidate graphs are built per
// shard on a bounded worker pool and reconciled into one global graph the
// sparse matchers run on. -shards 1 is bit-identical to the exact build;
// larger S divides scan work and per-shard memory at bounded recall cost.
//
// With -out-of-core (requires -load-snapshot) the embedding tables are served
// from the snapshot file itself — mmapped where supported, chunked ReadAt
// otherwise — so table-sized heap allocations never happen; combined with
// -shards this is the 1M×1M-under-4GiB configuration.
//
// With -auto the cost-based planner (internal/plan, costed from the one
// coefficient table plan.Defaults) picks the cheapest engine that fits
// -mem-budget: dense, streaming tiles, sparse top-C graphs, IVF, or SQ8 —
// with -target-recall it may trade candidate recall for speed through
// approximate ANN plans. Explicit engine flags always win over the planner.
// -explain prints every candidate plan with its estimated wall time, peak
// memory, and the machine-readable reason it lost.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"entmatcher"
	"entmatcher/internal/exitcode"
)

// errDegraded marks a run that completed but only after at least one matcher
// degraded to a cheaper fallback tier; main maps it to exit code 3 so
// scripted callers can distinguish "answered, but not by the matcher you
// asked for" from success (0) and failure (1). The convention is shared
// with benchtab and documented in internal/exitcode.
var errDegraded = errors.New("one or more matchers degraded under the time budget")

// usageError marks a command line whose flags parsed individually but combine
// illegally (e.g. -nprobe without -ann). main maps it to exit code 2 — the
// flag package's own convention for a rejected command line — so scripts can
// tell "you typed the command wrong" from "the run failed".
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "entmatcher:", err)
		if errors.Is(err, errDegraded) {
			os.Exit(exitcode.Degraded)
		}
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(exitcode.Usage)
		}
		os.Exit(exitcode.Failure)
	}
}

func run() error {
	var (
		dataDir  = flag.String("data", "", "dataset directory (required)")
		model    = flag.String("model", "rrea", "structural encoder: rrea or gcn")
		features = flag.String("features", "structure", "features: structure, name, fused")
		setting  = flag.String("setting", "1to1", "evaluation setting: 1to1, unmatchable, non1to1")
		matchers = flag.String("m", "", "comma-separated matcher names (default: all seven)")
		sinkL    = flag.Int("sinkhorn-l", 100, "Sinkhorn iterations")
		cslsK    = flag.Int("csls-k", 1, "CSLS neighborhood size")
		abstainQ = flag.Float64("abstention-q", 0.3, "dummy abstention quantile for Hun./SMat under -setting unmatchable")
		embSrc   = flag.String("emb-src", "", "optional externally trained source embeddings (word2vec text format)")
		embTgt   = flag.String("emb-tgt", "", "optional externally trained target embeddings")
		timeout  = flag.Duration("timeout", 0, "per-matcher wall-clock budget; on timeout the run degrades to cheaper matchers (RInf-pb, then DInf) instead of hanging (0 = unbounded)")
		stream   = flag.Bool("stream", false, "use the tiled streaming similarity engine: scores are computed tile by tile and the dense matrix is never allocated (matchers: DInf, CSLS, Sink.-mb)")
		memMiB   = flag.Int64("mem-budget", 0, "dense score-matrix budget in MiB; when the matrix would exceed it the run streams automatically (0 = no cap)")
		cand     = flag.Int("cand", 0, "sparse candidate budget C: stream the scores into top-C candidate graphs and run the sparse matcher twins (CSLS, RInf, Sink., Hun., SMat) on them (0 = dense/streaming as usual)")
		annK     = flag.Int("ann", 0, "approximate candidate generation: build the top-C graphs through an IVF index with this many k-means clusters instead of the exhaustive streaming pass (requires -cand; 0 = exact build)")
		nprobe   = flag.Int("nprobe", 0, "IVF cells scanned per query — the recall/speed knob (requires -ann; 0 = auto, clusters/16; equal to -ann reproduces the exact build bit-for-bit)")
		useQuant = flag.Bool("quant", false, "rank candidate scans with SQ8 int8 codes (8× smaller scan tables) and re-score an over-fetched pool with exact float64 products — bit-identical graphs at the default -rerank-factor (requires -cand; composes with -ann)")
		rerankF  = flag.Int("rerank-factor", 4, "quantized-scan pool over-fetch multiplier: re-rank the quantized top factor×C exactly (requires -quant; 0 = no exact re-rank, serve the quantized approximations)")
		saveSnap = flag.String("save-snapshot", "", "after preparation, persist the prepared tables (and the IVF indexes under -ann, the SQ8 tables under -quant) to this path as a crash-safe snapshot (requires -stream or -cand; written atomically: temp file, fsync, rename)")
		loadSnap = flag.String("load-snapshot", "", "prepare from a previously saved snapshot instead of re-encoding embeddings (requires -stream or -cand; the snapshot must match -features, -setting and -ann, otherwise the run fails with a mismatch error rather than silently rebuilding)")
		shards   = flag.Int("shards", 0, "partition both corpora into this many co-clustered shards and build the candidate graphs per shard on a bounded worker pool, reconciling into one global graph (requires -cand; 1 = bit-identical degenerate build; 0 = unsharded)")
		ooc      = flag.Bool("out-of-core", false, "serve the embedding tables from the snapshot file itself — mmapped where supported, chunked ReadAt otherwise — instead of materializing them on the heap (requires -load-snapshot)")
		auto     = flag.Bool("auto", false, "let the cost-based planner pick the engine — dense, streaming, sparse candidates, IVF, SQ8 — from the task shape and -mem-budget; explicit engine flags (-stream, -cand, -ann, -quant) always override the planner")
		recall   = flag.Float64("target-recall", 0, "minimum estimated candidate recall the planner must meet before it may choose an approximate (IVF) plan (requires -auto; 0 = exact-coverage plans only)")
		explain  = flag.Bool("explain", false, "print the planner's full decision: every candidate plan with estimated wall time, peak memory, and the reason it was rejected (requires -auto)")
	)
	flag.Parse()
	// Flags that only parameterize another flag's engine are rejected when
	// set — at any value, including their defaults — without that engine.
	// flag.Visit reports only flags the command line actually set, so
	// "-rerank-factor 4" without -quant is caught even though 4 is the
	// default value: the user typed a knob that cannot take effect.
	explicitlySet := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicitlySet[f.Name] = true })
	if explicitlySet["nprobe"] && *annK == 0 {
		return usageError("-nprobe requires -ann (it is the IVF probe count; without an index it cannot take effect)")
	}
	if explicitlySet["rerank-factor"] && !*useQuant {
		return usageError("-rerank-factor requires -quant (it sizes the quantized scan's re-rank pool; without -quant it cannot take effect)")
	}
	if *recall != 0 && !*auto {
		return usageError("-target-recall requires -auto (only the planner can trade candidate recall for speed)")
	}
	if *explain && !*auto {
		return usageError("-explain requires -auto (there is no plan to explain on an explicitly configured run)")
	}
	if *ooc && *loadSnap == "" {
		return usageError("-out-of-core requires -load-snapshot (only snapshot slabs can back an out-of-core run)")
	}
	if *dataDir == "" {
		return fmt.Errorf("-data is required")
	}

	d, err := entmatcher.LoadDataset(*dataDir, *dataDir)
	if err != nil {
		return err
	}
	cfg := entmatcher.PipelineConfig{WithValidation: true}
	switch strings.ToLower(*model) {
	case "rrea":
		cfg.Model = entmatcher.ModelRREA
	case "gcn":
		cfg.Model = entmatcher.ModelGCN
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	switch strings.ToLower(*features) {
	case "structure":
		cfg.Features = entmatcher.FeatureStructure
	case "name":
		cfg.Features = entmatcher.FeatureName
	case "fused":
		cfg.Features = entmatcher.FeatureFused
	default:
		return fmt.Errorf("unknown features %q", *features)
	}
	switch strings.ToLower(*setting) {
	case "1to1":
		cfg.Setting = entmatcher.SettingOneToOne
	case "unmatchable":
		cfg.Setting = entmatcher.SettingUnmatchable
	case "non1to1":
		cfg.Setting = entmatcher.SettingNonOneToOne
	default:
		return fmt.Errorf("unknown setting %q", *setting)
	}

	cfg.Streaming = *stream
	if *memMiB < 0 {
		return fmt.Errorf("-mem-budget must be non-negative")
	}
	cfg.MemoryBudgetBytes = *memMiB << 20
	if *cand < 0 {
		return fmt.Errorf("-cand must be non-negative")
	}
	cfg.CandidateBudget = *cand
	if *annK < 0 {
		return fmt.Errorf("-ann must be non-negative")
	}
	if *nprobe < 0 {
		return fmt.Errorf("-nprobe must be non-negative")
	}
	if *annK > 0 {
		if *cand == 0 {
			return fmt.Errorf("-ann requires -cand (the index only accelerates candidate-graph construction)")
		}
		if *nprobe > *annK {
			fmt.Fprintf(os.Stderr, "warning: -nprobe %d exceeds -ann %d clusters; clamping to %d (exact coverage)\n", *nprobe, *annK, *annK)
			*nprobe = *annK
		}
		cfg.ANN = &entmatcher.ANNConfig{Clusters: *annK, NProbe: *nprobe}
	}
	if *rerankF < 0 {
		return fmt.Errorf("-rerank-factor must be non-negative")
	}
	if *useQuant {
		if *cand == 0 {
			return fmt.Errorf("-quant requires -cand (quantized scans only accelerate candidate-graph construction)")
		}
		cfg.Quant = &entmatcher.QuantConfig{RerankFactor: *rerankF, NoRerank: *rerankF == 0}
	}
	if *saveSnap != "" && *loadSnap != "" {
		return fmt.Errorf("-save-snapshot and -load-snapshot are mutually exclusive")
	}
	if (*saveSnap != "" || *loadSnap != "") && !*stream && *cand == 0 {
		return fmt.Errorf("-save-snapshot/-load-snapshot require a streaming run (-stream or -cand): snapshots hold the prepared streaming tables")
	}
	if *loadSnap != "" && (*embSrc != "" || *embTgt != "") {
		return fmt.Errorf("-load-snapshot is incompatible with -emb-src/-emb-tgt (the snapshot already holds the prepared tables)")
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be non-negative")
	}
	if *shards > 0 && *cand == 0 {
		return fmt.Errorf("-shards requires -cand (only candidate-graph construction is sharded)")
	}
	cfg.Shards = *shards
	cfg.OutOfCore = *ooc
	cfg.SaveSnapshot = *saveSnap
	cfg.LoadSnapshot = *loadSnap
	if *loadSnap != "" && *auto {
		// A snapshot pins the engine shape — the planner has nothing left to
		// decide. Flags that would make it decide anyway contradict the
		// snapshot and are command-line errors; plain -auto is reported as a
		// bypass instead of failing the run.
		if *explain {
			return usageError("-explain contradicts -load-snapshot: the snapshot pins the engine shape, so there is no plan to explain")
		}
		if *recall != 0 {
			return usageError("-target-recall contradicts -load-snapshot: the snapshot pins the engine shape, so the planner cannot trade recall for speed")
		}
		fmt.Println("planner: bypassed (snapshot pins the engine shape)")
		*auto = false
	}
	cfg.Auto = *auto
	cfg.TargetRecall = *recall
	// The validation matrix is not snapshotted; a snapshot-served run skips
	// it (MatchWithAbstention then reports a clear error if requested).
	cfg.WithValidation = *loadSnap == ""

	fmt.Printf("dataset %s: %d/%d entities, %d test links, setting %v, features %v\n",
		d.Name, d.Source.NumEntities(), d.Target.NumEntities(), d.Split.Test.Len(), cfg.Setting, cfg.Features)
	var run *entmatcher.Run
	if *embSrc != "" || *embTgt != "" {
		if *embSrc == "" || *embTgt == "" {
			return fmt.Errorf("-emb-src and -emb-tgt must be given together")
		}
		emb, err := entmatcher.LoadEmbeddings(*embSrc, *embTgt, d)
		if err != nil {
			return err
		}
		run, err = entmatcher.NewPipeline(cfg).PrepareWithEmbeddings(d, emb)
		if err != nil {
			return err
		}
	} else {
		var err error
		run, err = entmatcher.NewPipeline(cfg).Prepare(d)
		if err != nil {
			return err
		}
	}
	defer run.Close()
	if run.OutOfCoreMode != "" {
		fmt.Printf("out-of-core: tables served from %s via %s\n", *loadSnap, run.OutOfCoreMode)
	}
	if *auto {
		if run.Plan == nil {
			fmt.Println("planner: bypassed (explicit engine flags pin the configuration)")
		} else {
			if *explain {
				fmt.Println(run.Plan.Explain())
			} else {
				fmt.Printf("planner: chose %s (est wall %v, est peak %.2f GiB)\n",
					run.Plan.Chosen.Label(), run.Plan.Chosen.EstWall().Round(time.Millisecond),
					float64(run.Plan.Chosen.EstPeakBytes)/(1<<30))
			}
			// The matcher tables below key off the engine flags; adopt the
			// planner's candidate budget so the right twins are offered.
			*cand = run.Plan.Chosen.Knobs.CandidateBudget
		}
	}
	rows, cols := run.Dims()
	if *cand > cols {
		// A budget past the matrix width silently degenerates to the full
		// width anyway; clamp loudly so reported C matches what actually ran.
		fmt.Fprintf(os.Stderr, "warning: -cand %d exceeds the %d target columns; clamping to %d\n", *cand, cols, cols)
		*cand = cols
	}
	streaming := run.Stream != nil
	if streaming {
		fmt.Printf("similarity stream: %d×%d in %d×%d tiles (%.2f GiB dense matrix not allocated)\n\n",
			rows, cols, 256, 512, float64(run.Stream.MatrixBytes())/(1<<30))
	} else {
		fmt.Printf("similarity matrix: %d×%d\n\n", rows, cols)
	}

	available := map[string]entmatcher.Matcher{
		"DInf":     entmatcher.NewDInf(),
		"CSLS":     entmatcher.NewCSLS(*cslsK),
		"RInf":     entmatcher.NewRInf(),
		"RInf-wr":  entmatcher.NewRInfWR(),
		"RInf-pb":  entmatcher.NewRInfPB(50),
		"Sink.":    entmatcher.NewSinkhorn(*sinkL),
		"Sink.-mb": entmatcher.NewSinkhornBlocked(512, *sinkL),
		"Hun.":     entmatcher.NewHungarian(),
		"SMat":     entmatcher.NewSMat(),
		"RL":       entmatcher.NewRL(),
	}
	defaults := []string{"DInf", "CSLS", "RInf", "Sink.", "Hun.", "SMat", "RL"}
	if *cand > 0 {
		// Sparse candidate-graph twins: the collective matchers run on top-C
		// graphs built in one tiled pass, no dense matrix.
		available = map[string]entmatcher.Matcher{
			"DInf":  entmatcher.NewDInfStream(),
			"CSLS":  entmatcher.NewCSLSSparse(*cand, *cslsK),
			"RInf":  entmatcher.NewRInfSparse(*cand),
			"Sink.": entmatcher.NewSinkhornSparse(*cand, *sinkL),
			"Hun.":  entmatcher.NewHungarianSparse(*cand),
			"SMat":  entmatcher.NewSMatSparse(*cand),
		}
		defaults = []string{"DInf", "CSLS", "RInf", "Sink.", "Hun.", "SMat"}
	} else if streaming {
		// Only the fused streaming matchers can run without the dense matrix.
		available = map[string]entmatcher.Matcher{
			"DInf":     entmatcher.NewDInfStream(),
			"CSLS":     entmatcher.NewCSLSStream(*cslsK),
			"Sink.-mb": entmatcher.NewSinkhornBlocked(512, *sinkL),
		}
		defaults = []string{"DInf", "CSLS", "Sink.-mb"}
	}
	var selected []entmatcher.Matcher
	if *matchers == "" {
		for _, name := range defaults {
			selected = append(selected, available[name])
		}
	} else {
		for _, name := range strings.Split(*matchers, ",") {
			m, ok := available[strings.TrimSpace(name)]
			if !ok {
				if *cand > 0 {
					return fmt.Errorf("unknown matcher %q under -cand (have: DInf, CSLS, RInf, Sink., Hun., SMat)", name)
				}
				if streaming {
					return fmt.Errorf("unknown or dense-only matcher %q under -stream (have: DInf, CSLS, Sink.-mb)", name)
				}
				return fmt.Errorf("unknown matcher %q (have: DInf, CSLS, RInf, RInf-wr, RInf-pb, Sink., Sink.-mb, Hun., SMat, RL)", name)
			}
			selected = append(selected, m)
		}
	}

	fmt.Printf("%-8s  %7s  %7s  %7s  %10s  %9s\n", "matcher", "P", "R", "F1", "time", "extra mem")
	anyDegraded := false
	for _, m := range selected {
		var res *entmatcher.MatchResult
		var metrics entmatcher.Metrics
		// The degradation decision keys off the requested matcher's name,
		// not the fallback wrapper's.
		exec := withBudget(m, *timeout, streaming)
		if cfg.Setting == entmatcher.SettingUnmatchable && (m.Name() == "Hun." || m.Name() == "SMat") {
			res, metrics, err = run.MatchWithAbstention(exec, *abstainQ)
		} else {
			res, metrics, err = run.Match(exec)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", m.Name(), err)
		}
		fmt.Printf("%-8s  %7.3f  %7.3f  %7.3f  %10v  %6.3fGiB\n",
			m.Name(), metrics.Precision, metrics.Recall, metrics.F1,
			res.Elapsed.Round(time.Millisecond), float64(res.ExtraBytes)/(1<<30))
		if len(res.DegradedFrom) > 0 {
			anyDegraded = true
			fmt.Printf("          ^ degraded to %s (budget %v exhausted by %s)\n",
				res.Matcher, *timeout, strings.Join(res.DegradedFrom, ", "))
		}
	}
	if *explain {
		gs := run.GraphStats()
		fmt.Printf("candidate graphs: %d built, %d served from the memo (%d parts derived), %d full tile passes, %.3f GiB held\n",
			gs.Builds, gs.Hits, gs.Derived, gs.Passes, float64(gs.Bytes)/(1<<30))
	}
	if anyDegraded {
		return errDegraded
	}
	return nil
}

// withBudget wraps m in a degradation chain under the budget: m itself,
// then progressive-blocking RInf, then DInf as the always-answers floor (on
// a streaming run the floor is streaming DInf — the dense fallbacks cannot
// run without the matrix). Tiers whose name duplicates an earlier tier are
// dropped, so asking for DInf with a budget doesn't build DInf→...→DInf. A
// zero budget returns m unchanged.
func withBudget(m entmatcher.Matcher, budget time.Duration, streaming bool) entmatcher.Matcher {
	if budget <= 0 {
		return m
	}
	fallbacks := []entmatcher.Matcher{entmatcher.NewRInfPB(50), entmatcher.NewDInf()}
	if streaming {
		fallbacks = []entmatcher.Matcher{entmatcher.NewDInfStream()}
	}
	tiers := []entmatcher.Matcher{m}
	for _, fb := range fallbacks {
		dup := false
		for _, t := range tiers {
			if t.Name() == fb.Name() {
				dup = true
				break
			}
		}
		if !dup {
			tiers = append(tiers, fb)
		}
	}
	return entmatcher.NewFallback(budget, tiers...)
}
