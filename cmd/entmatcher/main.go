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
//	entmatcher -data ./data/100k -auto -mem-budget 2048    # plans within 2 GiB
//	entmatcher -data ./data/1m -cand 8 -shards 64      # co-clustered sharded matching
//	entmatcher -data ./data/1m -cand 8 -shards 64 -load-snapshot p.snap -out-of-core
//
// Which engine flags combine is internal/engine's rule table (README, "Engine
// flags"); an illegal combination exits 2 with the rule's message.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"entmatcher"
	"entmatcher/internal/core"
	"entmatcher/internal/exitcode"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
)

// errDegraded marks a run that completed but only after at least one matcher
// degraded to a cheaper fallback tier; main maps it to exit code 3 so
// scripted callers can distinguish "answered, but not by the matcher you
// asked for" from success (0) and failure (1). The convention is documented
// in internal/exitcode.
var errDegraded = errors.New("one or more matchers degraded under the time budget")

// usageError marks a command line whose flags parsed individually but combine
// illegally in a way only the command line shows (e.g. -nprobe without -ann).
// main maps it, like the library's ErrBadConfig, to exit code 2 — the flag
// package's own convention for a rejected command line — so scripts can tell
// "you typed the command wrong" from "the run failed".
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "entmatcher:", err)
		if errors.Is(err, errDegraded) {
			os.Exit(exitcode.Degraded)
		}
		var ue usageError
		if errors.As(err, &ue) || errors.Is(err, entmatcher.ErrBadConfig) {
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
		memMiB   = flag.Int64("mem-budget", 0, "peak working-memory budget in MiB the planner's chosen plan must fit (requires -auto; 0 = no cap)")
		cand     = flag.Int("cand", 0, "sparse candidate budget C: stream the scores into top-C candidate graphs and run the sparse matcher twins (CSLS, RInf, Sink., Hun., SMat) on them (0 = dense/streaming as usual)")
		annK     = flag.Int("ann", 0, "approximate candidate generation: build the top-C graphs through an IVF index with this many k-means clusters instead of the exhaustive streaming pass (0 = exact build)")
		nprobe   = flag.Int("nprobe", 0, "IVF cells scanned per query — the recall/speed knob (requires -ann; 0 = auto, clusters/16; equal to -ann reproduces the exact build bit-for-bit)")
		useQuant = flag.Bool("quant", false, "rank candidate scans with SQ8 int8 codes (8× smaller scan tables) and re-score an over-fetched pool with exact float64 products — bit-identical graphs at the default -rerank-factor (composes with -ann)")
		rerankF  = flag.Int("rerank-factor", quant.DefaultRerankFactor, "quantized-scan pool over-fetch multiplier: re-rank the quantized top factor×C exactly (requires -quant; 0 = no exact re-rank, serve the quantized approximations)")
		saveSnap = flag.String("save-snapshot", "", "after preparation, persist the prepared tables (and the IVF indexes under -ann, the SQ8 tables under -quant) to this path as a crash-safe snapshot (written atomically: temp file, fsync, rename)")
		loadSnap = flag.String("load-snapshot", "", "prepare from a previously saved snapshot instead of re-encoding embeddings (the snapshot must match -features, -setting and -ann, otherwise the run fails with a mismatch error rather than silently rebuilding)")
		shards   = flag.Int("shards", 0, "partition both corpora into this many co-clustered shards and build the candidate graphs per shard on a bounded worker pool, reconciling into one global graph (1 = bit-identical degenerate build; 0 = unsharded)")
		ooc      = flag.Bool("out-of-core", false, "serve the embedding tables from the snapshot file itself — mmapped where supported, chunked ReadAt otherwise — instead of materializing them on the heap")
		auto     = flag.Bool("auto", false, "let the cost-based planner pick the engine — dense, streaming, sparse candidates, IVF, SQ8 — from the task shape and -mem-budget; explicit engine flags (-stream, -cand, -ann, -quant) always override the planner")
		recall   = flag.Float64("target-recall", 0, "minimum estimated candidate recall the planner must meet before it may choose an approximate (IVF) plan (0 = exact-coverage plans only)")
		explain  = flag.Bool("explain", false, "print the planner's full decision: every candidate plan with estimated wall time, peak memory, and the reason it was rejected (requires -auto)")
	)
	flag.Parse()
	// Flags that only parameterize another flag's engine are rejected when
	// set — at any value, including their defaults — without that engine:
	// flag.Visit reports only what the command line actually typed, which a
	// PipelineConfig cannot show. Every other rule is cfg.Validate's.
	explicitlySet := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicitlySet[f.Name] = true })
	if explicitlySet["nprobe"] && *annK == 0 {
		return usageError("-nprobe requires -ann (it is the IVF probe count; without an index it cannot take effect)")
	}
	if explicitlySet["rerank-factor"] && !*useQuant {
		return usageError("-rerank-factor requires -quant (it sizes the quantized scan's re-rank pool; without -quant it cannot take effect)")
	}
	if *explain && !*auto {
		return usageError("-explain requires -auto (there is no plan to explain on an explicitly configured run)")
	}
	if *dataDir == "" {
		return fmt.Errorf("-data is required")
	}
	if (*embSrc == "") != (*embTgt == "") {
		return fmt.Errorf("-emb-src and -emb-tgt must be given together")
	}

	cfg := entmatcher.PipelineConfig{
		Streaming:         *stream,
		MemoryBudgetBytes: *memMiB << 20,
		CandidateBudget:   *cand,
		Shards:            *shards,
		OutOfCore:         *ooc,
		SaveSnapshot:      *saveSnap,
		LoadSnapshot:      *loadSnap,
		Auto:              *auto,
		TargetRecall:      *recall,
		// The validation matrix is not snapshotted; a snapshot-served run skips
		// it (MatchWithAbstention then reports a clear error if requested).
		WithValidation: *loadSnap == "",
	}
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
	if *annK != 0 {
		cfg.ANN = &entmatcher.ANNConfig{Clusters: *annK, NProbe: *nprobe}
	}
	if *useQuant {
		cfg.Quant = &entmatcher.QuantConfig{RerankFactor: *rerankF, NoRerank: *rerankF == 0}
	}
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
		if *memMiB != 0 {
			return usageError("-mem-budget contradicts -load-snapshot: the snapshot pins the engine shape, so the planner has no memory budget to meet")
		}
		fmt.Println("planner: bypassed (snapshot pins the engine shape)")
		*auto, cfg.Auto = false, false
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	d, err := entmatcher.LoadDataset(*dataDir, *dataDir)
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s: %d/%d entities, %d test links, setting %v, features %v\n",
		d.Name, d.Source.NumEntities(), d.Target.NumEntities(), d.Split.Test.Len(), cfg.Setting, cfg.Features)
	var run *entmatcher.Run
	if *embSrc != "" {
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
			// The matcher table below keys off the candidate budget; adopt
			// the planner's so the right twins are offered.
			*cand = run.Plan.Chosen.Knobs.CandidateBudget
		}
	}
	rows, cols := run.Dims()
	width := cols
	if cfg.Setting == entmatcher.SettingUnmatchable {
		// The matchers that abstain see the abstention columns too.
		width += run.AbstentionColumns()
	}
	if *cand > width {
		// A budget past the matrix width silently degenerates to the full
		// width anyway; clamp loudly so reported C matches what actually ran.
		fmt.Fprintf(os.Stderr, "warning: -cand %d exceeds the %d columns a matcher sees; clamping to %d\n", *cand, width, width)
		*cand = width
	}
	streaming := run.Stream != nil
	if streaming {
		fmt.Printf("similarity stream: %d×%d in %d×%d tiles (%.2f GiB dense matrix not allocated)\n\n",
			rows, cols, matrix.DefaultTileRows, matrix.DefaultTileCols, float64(run.Stream.MatrixBytes())/(1<<30))
	} else {
		fmt.Printf("similarity matrix: %d×%d\n\n", rows, cols)
	}

	// What the run offers decides which body a matcher name resolves to:
	// sparse twins on candidate graphs, the fused matchers on bare tiles.
	table := core.OnDense
	if *cand > 0 {
		table = core.OnSparse
	} else if streaming {
		table = core.OnStream
	}
	params := core.MatcherParams{C: *cand, CSLSK: *cslsK, SinkhornL: *sinkL}
	names := table.Names(false)
	if *matchers != "" {
		names = strings.Split(*matchers, ",")
	}
	// Under unmatchable entities the algorithms that force a 1-to-1
	// assignment run with abstention columns, in every body (the table says
	// which).
	type selection struct {
		m       entmatcher.Matcher
		abstain bool
	}
	var selected []selection
	for _, name := range names {
		name = strings.TrimSpace(name)
		m, err := table.New(name, params)
		if err != nil {
			return err
		}
		selected = append(selected, selection{m, cfg.Setting == entmatcher.SettingUnmatchable && table.Abstains(name)})
	}

	fmt.Printf("%-8s  %7s  %7s  %7s  %10s  %9s\n", "matcher", "P", "R", "F1", "time", "extra mem")
	anyDegraded := false
	for _, sel := range selected {
		m := sel.m
		var res *entmatcher.MatchResult
		var metrics entmatcher.Metrics
		exec := table.WithBudget(m, *timeout, params)
		if sel.abstain {
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
