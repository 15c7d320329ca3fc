package bench

import (
	"fmt"
	"runtime"
	"time"

	"entmatcher"
	"entmatcher/internal/core"
	"entmatcher/internal/datagen"
)

// runTable6 reproduces Table 6: the seven algorithms plus the RInf-wr and
// RInf-pb scalability variants on the DWY100K-profile datasets with GCN
// embeddings, reporting F1, average time, and memory feasibility against
// the prorated budget.
func runTable6(cfg *Config, env *Env) ([]*Table, error) {
	profiles := datagen.DWY100K()
	pc := entmatcher.PipelineConfig{Model: entmatcher.ModelGCN, WithValidation: true}

	// The paper's seven plus the RInf-wr and RInf-pb scalability variants.
	algos := []string{"DInf", "CSLS", "RInf", "RInf-wr", "RInf-pb", "Sink.", "Hun.", "SMat", "RL"}
	var matchers []entmatcher.Matcher
	for _, name := range algos {
		m, err := core.OnDense.New(name, core.MatcherParams{CSLSK: cfg.CSLSK, SinkhornL: cfg.SinkhornL})
		if err != nil {
			return nil, err
		}
		matchers = append(matchers, m)
	}

	f1 := make(map[string][]float64)
	elapsed := make(map[string]time.Duration)
	extra := make(map[string]int64)
	peak := make(map[string]int64)
	var names []string
	for _, prof := range profiles {
		names = append(names, prof.Name)
		d, err := env.Dataset(prof, cfg.ScaleLarge)
		if err != nil {
			return nil, err
		}
		run, err := env.Run(d, pc)
		if err != nil {
			return nil, err
		}
		// Peak working memory is the matcher's own allocations plus the score
		// matrix it reads.
		simBytes := run.S.SizeBytes()
		for _, m := range matchers {
			runtime.GC() // stabilize per-matcher timings at this scale
			res, metrics, err := run.Match(m)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", m.Name(), prof.Name, err)
			}
			f1[m.Name()] = append(f1[m.Name()], metrics.F1)
			elapsed[m.Name()] += res.Elapsed
			if res.ExtraBytes > extra[m.Name()] {
				extra[m.Name()] = res.ExtraBytes
			}
			if p := simBytes + res.ExtraBytes; p > peak[m.Name()] {
				peak[m.Name()] = p
			}
			cfg.logf("  table6 %s %s: F1=%.3f (%v, %s GiB extra, %s GiB peak)",
				prof.Name, m.Name(), metrics.F1, res.Elapsed.Round(time.Millisecond), gb(res.ExtraBytes), gb(simBytes+res.ExtraBytes))
		}
	}

	t := &Table{
		ID:      "table6",
		Title:   "DWY100K-profile F1 (GCN), average time and memory feasibility (measured)",
		Columns: append(append([]string{}, names...), "Imp.", "T(s)", "Extra GiB", "Peak GiB", "Mem."),
	}
	base := f1["DInf"]
	for _, m := range matchers {
		name := m.Name()
		vals := f1[name]
		cells := make([]string, 0, len(vals)+4)
		for _, v := range vals {
			cells = append(cells, f3(v))
		}
		if name == "DInf" {
			cells = append(cells, "")
		} else {
			var sum float64
			for i := range vals {
				sum += vals[i]/base[i] - 1
			}
			cells = append(cells, pct(sum/float64(len(vals))))
		}
		avg := elapsed[name].Seconds() / float64(len(profiles))
		feasible := "Yes"
		if extra[name] > cfg.MemoryBudgetBytes {
			feasible = "No"
		}
		cells = append(cells, secs(avg), gb(extra[name]), gb(peak[name]), feasible)
		t.AddRow(name, cells...)
	}
	t.AddNote("scale ×%g of DWY100K; memory budget %s GiB beyond the similarity matrix", cfg.ScaleLarge, gb(cfg.MemoryBudgetBytes))
	t.AddNote("deviation: this Go implementation stores SMat preference tables as int32 and solves LAP in place, so its absolute memory footprint is smaller than the paper's Python library; relative ordering of the transforms (RInf > CSLS > DInf) is preserved")

	ref := &Table{
		ID:      "table6",
		Title:   "DWY100K (paper reference, full 100K scale)",
		Columns: []string{"D-W", "D-Y", "T(s)", "Mem."},
	}
	for _, name := range algos {
		v := paperTable6[name]
		if v.Mem == "/" {
			ref.AddRow(name, "/", "/", "/", "/")
			continue
		}
		ref.AddRow(name, f3(v.F1[0]), f3(v.F1[1]), secs(v.Time), v.Mem)
	}
	ref.AddNote("SMat could not run in the paper's environment (out of memory)")
	return []*Table{t, ref}, nil
}
