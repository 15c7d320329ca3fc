// Command benchtab regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	benchtab                         # run every experiment at default scale
//	benchtab -exp table4,figure6     # run selected experiments
//	benchtab -quick                  # small smoke-test scale
//	benchtab -scale-medium 0.1       # override individual scales
//	benchtab -list                   # list experiment IDs
//	benchtab -o results.txt          # also write the output to a file
//
// Scales are relative to the paper's full dataset sizes; the defaults are
// the ones recorded in EXPERIMENTS.md for a 1-CPU container. Every experiment
// is a paper artifact (a table, figure, section or appendix); engine and
// planner performance is measured by the harness under benchmark/
// (bash benchmark/run.sh), not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"entmatcher/internal/bench"
	"entmatcher/internal/exitcode"
)

// errDegraded marks a run whose tables are complete but where at least one
// matcher fell back to a cheaper tier under -timeout; main maps it to exit
// code 3, the convention shared with entmatcher (see internal/exitcode).
var errDegraded = errors.New("degraded under the -timeout budget")

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		if errors.Is(err, errDegraded) {
			os.Exit(exitcode.Degraded)
		}
		os.Exit(exitcode.Failure)
	}
}

func run() error {
	cfg := bench.DefaultConfig()
	var (
		expList = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		quick   = flag.Bool("quick", false, "use the small smoke-test scales")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		outFile = flag.String("o", "", "also write results to this file")
		verbose = flag.Bool("v", false, "log per-run progress to stderr")
	)
	flag.Float64Var(&cfg.ScaleMedium, "scale-medium", cfg.ScaleMedium, "scale factor for DBP15K/SRPRS")
	flag.Float64Var(&cfg.ScaleLarge, "scale-large", cfg.ScaleLarge, "scale factor for DWY100K")
	flag.Float64Var(&cfg.ScaleUnmatchable, "scale-unmatchable", cfg.ScaleUnmatchable, "scale factor for DBP15K+")
	flag.Float64Var(&cfg.ScaleMul, "scale-mul", cfg.ScaleMul, "scale factor for FB_DBP_MUL")
	flag.IntVar(&cfg.SinkhornL, "sinkhorn-l", cfg.SinkhornL, "Sinkhorn iterations")
	flag.IntVar(&cfg.CSLSK, "csls-k", cfg.CSLSK, "CSLS neighborhood size")
	flag.Float64Var(&cfg.AbstentionQ, "abstention-q", cfg.AbstentionQ, "validation quantile for dummy abstention")
	flag.DurationVar(&cfg.RunTimeout, "timeout", cfg.RunTimeout, "per-matcher wall-clock budget; over-budget matchers degrade to RInf-pb then DInf (0 = unbounded)")
	flag.BoolVar(&cfg.StreamLarge, "stream", cfg.StreamLarge, "run the large-scale table (table6) on the tiled streaming similarity engine: the dense score matrix is never allocated and only the streaming-capable matchers (DInf, CSLS, Sink.-mb) are measured")
	flag.Int64Var(&cfg.MemoryBudgetBytes, "mem-budget", cfg.MemoryBudgetBytes, "per-algorithm working-memory budget in bytes behind table6's Mem. feasibility column")
	flag.Parse()

	if *list {
		for _, exp := range bench.Experiments() {
			fmt.Printf("%-16s %s\n", exp.ID, exp.Title)
		}
		return nil
	}
	if *quick {
		quickCfg := bench.QuickConfig()
		cfg.ScaleMedium = quickCfg.ScaleMedium
		cfg.ScaleLarge = quickCfg.ScaleLarge
		cfg.ScaleUnmatchable = quickCfg.ScaleUnmatchable
		cfg.ScaleMul = quickCfg.ScaleMul
		cfg.MemoryBudgetBytes = quickCfg.MemoryBudgetBytes
	}
	if *verbose {
		cfg.Log = os.Stderr
	}

	var out io.Writer = os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	var selected []bench.Experiment
	if *expList == "" {
		selected = bench.Experiments()
	} else {
		for _, id := range strings.Split(*expList, ",") {
			id = strings.TrimSpace(id)
			exp, ok := bench.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, exp)
		}
	}

	env := bench.NewEnv()
	for _, exp := range selected {
		fmt.Fprintf(out, "=== %s: %s ===\n\n", exp.ID, exp.Title)
		start := time.Now()
		tables, err := exp.Run(&cfg, env)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		for _, t := range tables {
			if err := t.Render(out); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "(%s finished in %v)\n\n", exp.ID, time.Since(start).Round(time.Second))
	}
	if notes := env.DegradationNotes(); len(notes) > 0 {
		fmt.Fprintf(os.Stderr, "benchtab: %d matcher run(s) degraded under the -timeout budget:\n", len(notes))
		for _, n := range notes {
			fmt.Fprintf(os.Stderr, "  - %s\n", n)
		}
		return fmt.Errorf("%w: %d run(s); the affected table cells report fallback-tier results", errDegraded, len(notes))
	}
	return nil
}
