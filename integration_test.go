package entmatcher_test

// End-to-end integration tests across package boundaries: dataset
// generation → disk round trip → embedding → matching → evaluation, for
// each evaluation setting — the exact flow of the cmd/datagen and
// cmd/entmatcher tools.

import (
	"path/filepath"
	"reflect"
	"testing"

	"entmatcher"
	"entmatcher/internal/plan"
	"entmatcher/internal/server"
)

// TestOneCalibration pins that there is one planner calibration in the tree:
// the public facade returns plan.Defaults itself, and the two in-tree
// planners — the pipeline's Auto mode and entserver's startup plan — reach
// the same decision for the same tables.
func TestOneCalibration(t *testing.T) {
	cal, err := entmatcher.DefaultCalibration()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cal, plan.Defaults()) {
		t.Fatalf("DefaultCalibration() = %+v, want plan.Defaults() = %+v", cal, plan.Defaults())
	}

	d, err := entmatcher.GenerateBenchmark(entmatcher.ProfileDBP15KZhEn, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := entmatcher.NewPipeline(entmatcher.PipelineConfig{Model: entmatcher.ModelRREA, Auto: true}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prep.snap")
	save := entmatcher.PipelineConfig{Model: entmatcher.ModelRREA, CandidateBudget: 16, SaveSnapshot: path}
	if _, err := entmatcher.NewPipeline(save).Prepare(d); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(path, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, want := srv.Plan(), auto.Plan
	if got == nil || want == nil {
		t.Fatalf("missing plan: server %v, auto run %v", got, want)
	}
	if got.Workload != want.Workload {
		t.Fatalf("the two planners saw different workloads: server %+v, auto run %+v", got.Workload, want.Workload)
	}
	if got.Chosen.Engine != want.Chosen.Engine || got.Chosen.Knobs != want.Chosen.Knobs {
		t.Fatalf("server planned %s, auto run planned %s", got.Chosen.Label(), want.Chosen.Label())
	}
}

func TestIntegrationDiskRoundTripPipeline(t *testing.T) {
	d, err := entmatcher.GenerateBenchmark(entmatcher.ProfileSRPRSDbpWd, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ds")
	if err := entmatcher.SaveDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	loaded, err := entmatcher.LoadDataset(dir, "S-W")
	if err != nil {
		t.Fatal(err)
	}

	// The pipeline must produce identical results on the original and the
	// round-tripped dataset (entity IDs may be permuted by interning order,
	// but F1 is invariant).
	f1 := func(dataset *entmatcher.Dataset) float64 {
		run, err := entmatcher.NewPipeline(entmatcher.PipelineConfig{
			Model: entmatcher.ModelRREA,
		}).Prepare(dataset)
		if err != nil {
			t.Fatal(err)
		}
		_, m, err := run.Match(entmatcher.NewCSLS(1))
		if err != nil {
			t.Fatal(err)
		}
		return m.F1
	}
	orig, back := f1(d), f1(loaded)
	if orig != back {
		t.Fatalf("F1 changed across disk round trip: %v vs %v", orig, back)
	}
	if orig <= 0.1 {
		t.Fatalf("implausibly low F1 %v", orig)
	}
}

// TestIntegrationAllSettingsAllMatchers: every (setting, matcher) pair runs
// without error and every row is accounted for.
func TestIntegrationAllSettingsAllMatchers(t *testing.T) {
	oneToOne, err := entmatcher.GenerateBenchmark(entmatcher.ProfileDBP15KFrEn, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	mul, err := entmatcher.GenerateNonOneToOneBenchmark(entmatcher.ProfileFBDBPMul, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		dataset *entmatcher.Dataset
		setting entmatcher.Setting
	}{
		{"1to1", oneToOne, entmatcher.SettingOneToOne},
		{"unmatchable", oneToOne, entmatcher.SettingUnmatchable},
		{"non1to1", mul, entmatcher.SettingNonOneToOne},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run, err := entmatcher.NewPipeline(entmatcher.PipelineConfig{
				Model:          entmatcher.ModelGCN,
				Setting:        tc.setting,
				WithValidation: true,
			}).Prepare(tc.dataset)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range entmatcher.AllMatchers() {
				res, metrics, err := run.Match(m)
				if err != nil {
					t.Fatalf("%s: %v", m.Name(), err)
				}
				if got := len(res.Pairs) + len(res.Abstained); got != run.S.Rows() {
					t.Fatalf("%s: %d pairs + %d abstained for %d rows",
						m.Name(), len(res.Pairs), len(res.Abstained), run.S.Rows())
				}
				if metrics.F1 < 0 || metrics.F1 > 1 {
					t.Fatalf("%s: F1 out of range: %v", m.Name(), metrics.F1)
				}
			}
		})
	}
}

// TestIntegrationMetricConsistency: under 1-to-1, every matcher that emits
// one prediction per row must have P = R; matchers that abstain must have
// P ≥ R.
func TestIntegrationMetricConsistency(t *testing.T) {
	d, err := entmatcher.GenerateBenchmark(entmatcher.ProfileSRPRSDeEn, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	run, err := entmatcher.NewPipeline(entmatcher.PipelineConfig{
		Model:          entmatcher.ModelRREA,
		WithValidation: true,
	}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range entmatcher.AllMatchers() {
		res, metrics, err := run.Match(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Abstained) == 0 && metrics.Precision != metrics.Recall {
			t.Fatalf("%s: P %v != R %v with no abstentions", m.Name(), metrics.Precision, metrics.Recall)
		}
		if metrics.Precision < metrics.Recall {
			t.Fatalf("%s: precision %v below recall %v", m.Name(), metrics.Precision, metrics.Recall)
		}
	}
}
