package bench

import (
	"fmt"
	"time"

	"entmatcher"
	"entmatcher/internal/core"
	"entmatcher/internal/datagen"
)

// runTable7 reproduces Table 7: the unmatchable-entity setting (DBP15K+)
// under GCN and RREA. Hungarian and SMat run with the dummy-node recipe
// (abstention columns at the validation-calibrated score); the greedy-family
// algorithms run unchanged and pay the precision cost of matching
// unmatchable entities.
func runTable7(cfg *Config, env *Env) ([]*Table, error) {
	var out []*Table
	for _, model := range []struct {
		name string
		pc   entmatcher.PipelineConfig
	}{
		{"GCN", entmatcher.PipelineConfig{Model: entmatcher.ModelGCN, Setting: entmatcher.SettingUnmatchable, WithValidation: true}},
		{"RREA", entmatcher.PipelineConfig{Model: entmatcher.ModelRREA, Setting: entmatcher.SettingUnmatchable, WithValidation: true}},
	} {
		f1 := make(map[string][]float64)
		elapsed := make(map[string]time.Duration)
		var names []string
		for _, prof := range datagen.DBP15K() {
			names = append(names, prof.Name)
			d, err := env.Dataset(prof, cfg.ScaleUnmatchable)
			if err != nil {
				return nil, err
			}
			run, err := env.Run(d, model.pc)
			if err != nil {
				return nil, err
			}
			for _, m := range matcherSet(cfg) {
				var res *entmatcher.MatchResult
				var metrics entmatcher.Metrics
				name := m.Name()
				if core.OnDense.Abstains(name) {
					res, metrics, err = run.MatchWithAbstention(m, cfg.AbstentionQ)
				} else {
					res, metrics, err = run.Match(m)
				}
				if err != nil {
					return nil, fmt.Errorf("%s on %s+: %w", name, prof.Name, err)
				}
				f1[name] = append(f1[name], metrics.F1)
				elapsed[name] += res.Elapsed
				cfg.logf("  table7 %s %s+ %s: F1=%.3f P=%.3f R=%.3f abstained=%d",
					model.name, prof.Name, name, metrics.F1, metrics.Precision, metrics.Recall, len(res.Abstained))
			}
		}
		t := &Table{
			ID:      "table7-" + model.name,
			Title:   fmt.Sprintf("DBP15K+ with %s embeddings (measured)", model.name),
			Columns: append(append([]string{}, names...), "T(s)"),
		}
		for _, name := range matcherOrder {
			vals, ok := f1[name]
			if !ok {
				continue
			}
			cells := make([]string, 0, len(vals)+1)
			for _, v := range vals {
				cells = append(cells, f3(v))
			}
			cells = append(cells, secs(elapsed[name].Seconds()/float64(len(names))))
			t.AddRow(name, cells...)
		}
		t.AddNote("Hun. and SMat use dummy abstention columns at the validation q=%.2f score quantile (§ 5.1 recipe)", cfg.AbstentionQ)

		ref := &Table{
			ID:      "table7-" + model.name,
			Title:   fmt.Sprintf("DBP15K+ with %s embeddings (paper reference)", model.name),
			Columns: []string{"D-Z", "D-J", "D-F", "T(s)"},
		}
		for _, name := range matcherOrder {
			v := paperTable7[model.name][name]
			ref.AddRow(name, f3(v.F1[0]), f3(v.F1[1]), f3(v.F1[2]), secs(v.Time))
		}
		out = append(out, t, ref)
	}
	return out, nil
}

// runTable8 reproduces Table 8: the non 1-to-1 alignment setting
// (FB_DBP_MUL) under GCN and RREA, reporting precision, recall and F1.
func runTable8(cfg *Config, env *Env) ([]*Table, error) {
	d, err := env.MulDataset(datagen.FBDBPMul, cfg.ScaleMul)
	if err != nil {
		return nil, err
	}
	var out []*Table
	for _, model := range []struct {
		name string
		pc   entmatcher.PipelineConfig
	}{
		{"GCN", entmatcher.PipelineConfig{Model: entmatcher.ModelGCN, Setting: entmatcher.SettingNonOneToOne, WithValidation: true}},
		{"RREA", entmatcher.PipelineConfig{Model: entmatcher.ModelRREA, Setting: entmatcher.SettingNonOneToOne, WithValidation: true}},
	} {
		run, err := env.Run(d, model.pc)
		if err != nil {
			return nil, err
		}
		t := &Table{
			ID:      "table8-" + model.name,
			Title:   fmt.Sprintf("FB_DBP_MUL with %s embeddings (measured)", model.name),
			Columns: []string{"P", "R", "F1", "T(s)"},
		}
		for _, m := range matcherSet(cfg) {
			res, metrics, err := run.Match(m)
			if err != nil {
				return nil, fmt.Errorf("%s on FB_DBP_MUL: %w", m.Name(), err)
			}
			t.AddRow(m.Name(), f3(metrics.Precision), f3(metrics.Recall), f3(metrics.F1), secs(res.Elapsed.Seconds()))
			cfg.logf("  table8 %s %s: %s", model.name, m.Name(), metrics)
		}
		t.AddNote("rows=%d distinct test sources, cols=%d distinct test targets, gold=%d links", run.S.Rows(), run.S.Cols(), len(run.Task.Gold))

		ref := &Table{
			ID:      "table8-" + model.name,
			Title:   fmt.Sprintf("FB_DBP_MUL with %s embeddings (paper reference)", model.name),
			Columns: []string{"P", "R", "F1", "T(s)"},
		}
		for _, name := range matcherOrder {
			v := paperTable8[model.name][name]
			ref.AddRow(name, f3(v.P), f3(v.R), f3(v.F1), secs(v.Time))
		}
		out = append(out, t, ref)
	}
	return out, nil
}
