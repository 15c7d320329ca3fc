package entmatcher

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"entmatcher/internal/engine"
	"entmatcher/internal/plan"
)

// handConfig spells a plan's knobs out as the PipelineConfig fields a user
// would set by hand — the inverse, for the knobs a plan can carry, of
// PipelineConfig.engine.
func handConfig(base PipelineConfig, k engine.Knobs) PipelineConfig {
	base.Streaming, base.CandidateBudget, base.Shards = k.Streaming, k.CandidateBudget, k.Shards
	if k.ANN() {
		base.ANN = &ANNConfig{Clusters: k.Clusters, NProbe: k.NProbe}
	}
	if k.Quant {
		base.Quant = &QuantConfig{RerankFactor: k.RerankFactor}
	}
	return base
}

// TestAutoPlannerMatchesHandConfig pins the planner's reproducibility
// contract: a run prepared under Auto must be bit-identical to a run whose
// configuration spells out the chosen plan's knobs by hand. The planner may
// only ever pick configurations a user could have written.
func TestAutoPlannerMatchesHandConfig(t *testing.T) {
	d := smallDataset(t)
	auto, err := NewPipeline(PipelineConfig{Model: ModelRREA, Auto: true}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Plan == nil {
		t.Fatal("Auto run carries no plan")
	}
	if auto.Plan.Chosen.Engine == "" || auto.Plan.Chosen.EstWallNS <= 0 {
		t.Fatalf("chosen plan is degenerate: %+v", auto.Plan.Chosen)
	}
	knobs := auto.Plan.Chosen.Knobs

	hand := handConfig(PipelineConfig{Model: ModelRREA}, knobs)
	if got := hand.engine(); got != knobs {
		t.Fatalf("hand config resolves to %+v, plan chose %+v", got, knobs)
	}
	byHand, err := NewPipeline(hand).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	if byHand.Plan != nil {
		t.Fatal("explicitly configured run carries a plan; planner should be bypassed")
	}

	var m Matcher = NewDInf()
	if knobs.CandidateBudget > 0 {
		m = NewRInfSparse(knobs.CandidateBudget)
	}
	resAuto, mAuto, err := auto.Match(m)
	if err != nil {
		t.Fatal(err)
	}
	resHand, mHand, err := byHand.Match(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(resAuto.Pairs) != len(resHand.Pairs) || mAuto.F1 != mHand.F1 {
		t.Fatalf("auto run diverges from hand config: %d/%v vs %d/%v",
			len(resAuto.Pairs), mAuto.F1, len(resHand.Pairs), mHand.F1)
	}
	for i := range resAuto.Pairs {
		if resAuto.Pairs[i] != resHand.Pairs[i] {
			t.Fatalf("pair %d differs: auto %v, hand %v", i, resAuto.Pairs[i], resHand.Pairs[i])
		}
	}
}

// TestPlannedKnobsPassTheRuleTable: the planner may only ever emit engine
// descriptions a user could have written. Over a grid of shapes, budgets and
// recall targets, the chosen and every rejected candidate's knobs must pass
// internal/engine's rule table for the planned shape, and the hand-written
// configuration spelling them out must validate and resolve back to them.
func TestPlannedKnobsPassTheRuleTable(t *testing.T) {
	cal := plan.Defaults()
	shapes := []struct{ src, tgt, dim int }{
		{1, 1, 4}, {7, 3, 8}, {100, 100, 64}, {2100, 2100, 128}, {4000, 1000, 128},
		{1000, 40000, 32}, {100000, 100000, 128}, {1000000, 1000000, 64},
	}
	for _, sh := range shapes {
		tables := int64(8 * (sh.src + sh.tgt) * sh.dim)
		for _, budget := range []int64{0, tables + 9<<20} { // unbounded; or the tables, the tile buffers and little else
			for _, target := range []float64{0, 0.8} {
				w := plan.Workload{SrcRows: sh.src, TgtRows: sh.tgt, Dim: sh.dim, MemoryBudgetBytes: budget, TargetRecall: target}
				p, err := cal.Choose(w)
				if err != nil {
					t.Fatalf("Choose(%+v): %v", w, err)
				}
				for _, c := range append([]plan.Candidate{p.Chosen}, p.Rejected...) {
					if err := c.Knobs.Check(MetricCosine, sh.src, sh.tgt); err != nil {
						t.Errorf("%+v: %s: %v", w, c.Label(), err)
					}
					hand := handConfig(PipelineConfig{}, c.Knobs)
					if err := hand.Validate(); err != nil {
						t.Errorf("%+v: %s by hand: %v", w, c.Label(), err)
					}
					if got := hand.engine(); got != c.Knobs {
						t.Errorf("%+v: %s by hand resolves to %+v, planned %+v", w, c.Label(), got, c.Knobs)
					}
				}
			}
		}
	}
}

// TestAutoExplicitKnobsOverride: Auto with an explicit engine knob bypasses
// the planner wholesale — the user's configuration runs untouched.
func TestAutoExplicitKnobsOverride(t *testing.T) {
	d := smallDataset(t)
	run, err := NewPipeline(PipelineConfig{Model: ModelRREA, Auto: true, Streaming: true}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	if run.Plan != nil {
		t.Fatal("explicit Streaming under Auto still consulted the planner")
	}
	if run.Stream == nil || run.S != nil {
		t.Fatal("explicit Streaming knob was not honored")
	}
}

func TestAutoConfigValidation(t *testing.T) {
	d := smallDataset(t)
	if _, err := NewPipeline(PipelineConfig{TargetRecall: 0.9}).Prepare(d); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("TargetRecall without Auto: %v, want ErrBadConfig", err)
	}
	if _, err := NewPipeline(PipelineConfig{Auto: true, TargetRecall: 1.5}).Prepare(d); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("TargetRecall out of range: %v, want ErrBadConfig", err)
	}
	if _, err := NewPipeline(PipelineConfig{Auto: true, LoadSnapshot: "x.snap"}).Prepare(d); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Auto with LoadSnapshot: %v, want ErrBadConfig", err)
	}
}

// TestPrepareContextCancelledBeforeSnapshotLoad is the regression test for
// the dropped-context bug: PrepareContext on the snapshot path used to ignore
// ctx entirely, so a cancelled context still loaded and prepared the run.
func TestPrepareContextCancelledBeforeSnapshotLoad(t *testing.T) {
	d := smallDataset(t)
	path := filepath.Join(t.TempDir(), "prep.snap")
	saveCfg := PipelineConfig{Model: ModelRREA, CandidateBudget: 16, SaveSnapshot: path}
	if _, err := NewPipeline(saveCfg).Prepare(d); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ooc := range []bool{false, true} {
		loadCfg := PipelineConfig{Model: ModelRREA, CandidateBudget: 16, LoadSnapshot: path, OutOfCore: ooc}
		run, err := NewPipeline(loadCfg).PrepareContext(ctx, d)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("OutOfCore=%v: cancelled snapshot prepare: run=%v err=%v, want context.Canceled", ooc, run != nil, err)
		}

		// Sanity: the same config with a live context still loads.
		run, err = NewPipeline(loadCfg).PrepareContext(context.Background(), d)
		if err != nil {
			t.Fatalf("OutOfCore=%v: %v", ooc, err)
		}
		if err := run.Close(); err != nil {
			t.Fatalf("OutOfCore=%v: close: %v", ooc, err)
		}
	}
}

// TestAutoClustersNProbeRejected is the regression test for the silent-clamp
// bug: Clusters = 0 resolves to ≈√rows clusters at build time, and an NProbe
// far above that used to pass Validate (which only checks NProbe against an
// explicit Clusters) and be silently clamped inside internal/ann. Prepare
// must reject it with a typed error instead.
func TestAutoClustersNProbeRejected(t *testing.T) {
	d := smallDataset(t)
	cfg := PipelineConfig{Model: ModelRREA, CandidateBudget: 8, ANN: &ANNConfig{Clusters: 0, NProbe: 10000}}
	_, err := NewPipeline(cfg).Prepare(d)
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("auto-clusters NProbe overflow: %v, want ErrBadConfig", err)
	}
	if err == nil || !strings.Contains(err.Error(), "auto geometry") {
		t.Fatalf("error does not name the auto geometry: %v", err)
	}

	// An NProbe within the auto geometry still prepares.
	ok := PipelineConfig{Model: ModelRREA, CandidateBudget: 8, ANN: &ANNConfig{Clusters: 0, NProbe: 2}}
	if _, err := NewPipeline(ok).Prepare(d); err != nil {
		t.Fatal(err)
	}
}

// TestRunPlanShape: the plan attached to an Auto run is self-describing —
// rejected candidates carry reasons and the explanation renders.
func TestRunPlanShape(t *testing.T) {
	d := smallDataset(t)
	run, err := NewPipeline(PipelineConfig{Model: ModelRREA, Auto: true}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	p := run.Plan
	if len(p.Rejected) == 0 {
		t.Fatal("plan lists no rejected candidates")
	}
	for _, c := range p.Rejected {
		if c.Reason == "" {
			t.Errorf("rejected %s has no reason", c.Label())
		}
	}
	text := p.Explain()
	if !strings.Contains(text, "chosen") || !strings.Contains(text, string(p.Chosen.Engine)) {
		t.Fatalf("Explain() does not describe the chosen plan:\n%s", text)
	}
	if p.Workload.SrcRows != d.Split.Test.Len() {
		t.Fatalf("plan workload rows %d, want test split %d", p.Workload.SrcRows, d.Split.Test.Len())
	}
	var _ = plan.EngineDense // keep the import honest: Engine values compare
	if p.Chosen.Engine != plan.EngineDense && p.Chosen.Knobs.CandidateBudget == 0 && !p.Chosen.Knobs.Streaming {
		t.Fatalf("non-dense plan %s carries no engine knobs: %+v", p.Chosen.Engine, p.Chosen.Knobs)
	}
}
