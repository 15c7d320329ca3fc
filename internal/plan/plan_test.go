package plan

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestDecisionTable pins the planner's engine choice over a grid of
// workload shapes and budgets: every regime the cost model is supposed to
// separate — dense at toy scale, sparse in the mid range, quantized sparse
// once the int8 scan amortizes, streaming as the only-thing-that-fits
// fallback, ANN+quant when the recall target is relaxed at scale.
func TestDecisionTable(t *testing.T) {
	cal := Defaults()
	cases := []struct {
		name string
		w    Workload
		want Engine
	}{
		{"toy_dense", Workload{SrcRows: 100, TgtRows: 100, Dim: 64}, EngineDense},
		{"mid_sparse", Workload{SrcRows: 2000, TgtRows: 2000, Dim: 64}, EngineSparse},
		// The sparse range runs further out than it used to: the float64
		// scan gained more from the register-blocked kernels (2.40×) than
		// the int8 scan did (1.53×), so the quant crossover — where the
		// int8 scan plus rerank pool amortizes — moved from ~15K to ~50K
		// rows (quantRatio/BlockedI8Speedup < 1/BlockedScanSpeedup).
		{"larger_sparse", Workload{SrcRows: 20000, TgtRows: 20000, Dim: 64}, EngineSparse},
		{"large_quant", Workload{SrcRows: 80000, TgtRows: 80000, Dim: 64}, EngineQuant},
		{"tight_budget_streaming", Workload{SrcRows: 20000, TgtRows: 20000, Dim: 64, MemoryBudgetBytes: 40 << 20}, EngineStreaming},
		{"relaxed_recall_annquant", Workload{SrcRows: 100000, TgtRows: 100000, Dim: 64, TargetRecall: 0.65}, EngineANNQuant},
		{"rect_sparse", Workload{SrcRows: 4000, TgtRows: 1000, Dim: 128}, EngineSparse},
		// Paper scale (DBP15K, D-W 100k) and the benchmark harness's two
		// shapes: what the pipeline, entserver and plan.drift.* plan for.
		{"dbp15k_recall_sparse", Workload{SrcRows: 15000, TgtRows: 15000, Dim: 128, TargetRecall: 0.9}, EngineSparse},
		{"dw100k_quant", Workload{SrcRows: 100000, TgtRows: 100000, Dim: 128}, EngineQuant},
		{"dw100k_recall_annquant", Workload{SrcRows: 100000, TgtRows: 100000, Dim: 128, TargetRecall: 0.9}, EngineANNQuant},
		{"harness_dense_shape_sparse", Workload{SrcRows: 2100, TgtRows: 2100, Dim: 128}, EngineSparse},
		{"harness_sparse_shape_sparse", Workload{SrcRows: 5600, TgtRows: 5600, Dim: 128}, EngineSparse},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := cal.Choose(tc.w)
			if err != nil {
				t.Fatalf("Choose(%+v): %v", tc.w, err)
			}
			if p.Chosen.Engine != tc.want {
				t.Fatalf("Choose(%+v) picked %s, want %s\n%s", tc.w, p.Chosen.Engine, tc.want, p.Explain())
			}
			if p.Chosen.Reason != "" {
				t.Errorf("chosen plan carries rejection reason %q", p.Chosen.Reason)
			}
			if !p.Chosen.Feasible {
				t.Errorf("chosen plan is marked infeasible")
			}
		})
	}
}

// TestNeverInfeasible asserts the budget is a hard cap: across a sweep of
// shapes and budgets the planner either returns a plan within budget or a
// typed ErrInfeasible — never a plan whose own estimate exceeds the budget.
func TestNeverInfeasible(t *testing.T) {
	cal := Defaults()
	for _, rows := range []int{50, 500, 5000, 50000, 250000} {
		for _, dim := range []int{32, 128} {
			for _, budget := range []int64{0, 1 << 20, 32 << 20, 1 << 30, 64 << 30} {
				w := Workload{SrcRows: rows, TgtRows: rows, Dim: dim, MemoryBudgetBytes: budget}
				p, err := cal.Choose(w)
				if err != nil {
					if !errors.Is(err, ErrInfeasible) {
						t.Fatalf("Choose(%+v): unexpected error %v", w, err)
					}
					continue
				}
				if budget > 0 && p.Chosen.EstPeakBytes > budget {
					t.Errorf("Choose(%+v) picked %s with est peak %d over budget %d",
						w, p.Chosen.Engine, p.Chosen.EstPeakBytes, budget)
				}
				for _, r := range p.Rejected {
					if r.Reason == "" {
						t.Errorf("rejected %s has no reason", r.Label())
					}
				}
			}
		}
	}
}

// TestInfeasibleError pins the no-plan-fits error: typed, and carrying every
// candidate's rejection reason so callers can surface the full story.
func TestInfeasibleError(t *testing.T) {
	cal := Defaults()
	_, err := cal.Choose(Workload{SrcRows: 20000, TgtRows: 20000, Dim: 64, MemoryBudgetBytes: 10 << 20})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	for _, engine := range []string{"dense", "streaming", "sparse"} {
		if !strings.Contains(err.Error(), engine) {
			t.Errorf("infeasible error does not mention %s: %v", engine, err)
		}
	}
}

// TestRejectionReasons asserts each rejection class the planner must be able
// to produce is reachable and machine-readable.
func TestRejectionReasons(t *testing.T) {
	cal := Defaults()
	// Exact target at toy scale: the fast-nprobe ANN candidate must be
	// rejected for recall, streaming for capability, and the rest as slower.
	p, err := cal.Choose(Workload{SrcRows: 100, TgtRows: 100, Dim: 64})
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string]bool{}
	for _, r := range p.Rejected {
		switch {
		case strings.HasPrefix(r.Reason, "recall:"):
			classes["recall"] = true
		case strings.HasPrefix(r.Reason, "slower:"):
			classes["slower"] = true
		case strings.HasPrefix(r.Reason, "fallback tier:"):
			classes["fallback"] = true
		case strings.HasPrefix(r.Reason, "infeasible:"):
			classes["infeasible"] = true
		}
	}
	for _, want := range []string{"recall", "slower", "fallback"} {
		if !classes[want] {
			t.Errorf("no rejected candidate with a %q reason:\n%s", want, p.Explain())
		}
	}
	// A budget squeezing out dense must produce an infeasible rejection.
	p, err = cal.Choose(Workload{SrcRows: 20000, TgtRows: 20000, Dim: 64, MemoryBudgetBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range p.Rejected {
		if r.Engine == EngineDense && strings.HasPrefix(r.Reason, "infeasible:") {
			found = true
		}
	}
	if !found {
		t.Errorf("dense not rejected as infeasible under a 1 GiB budget:\n%s", p.Explain())
	}
}

// TestTargetRecallKnobs asserts ANN plans are tuned to the requested recall:
// relaxing the target lowers nprobe monotonically, and the chosen estimate
// always meets the target.
func TestTargetRecallKnobs(t *testing.T) {
	cal := Defaults()
	prev := math.MaxInt32
	for _, target := range []float64{1, 0.9, 0.65, 0.4} {
		p, err := cal.Choose(Workload{SrcRows: 50000, TgtRows: 50000, Dim: 64, TargetRecall: target})
		if err != nil {
			t.Fatal(err)
		}
		if p.Chosen.EstRecall < target-1e-9 {
			t.Errorf("target %.2f: chosen %s has est recall %.3f", target, p.Chosen.Label(), p.Chosen.EstRecall)
		}
		np := p.Chosen.Knobs.NProbe
		if np == 0 {
			np = p.Chosen.Knobs.Clusters // exact plan: full coverage equivalent
		}
		if np > prev {
			t.Errorf("target %.2f: nprobe %d grew past %d as the target relaxed", target, np, prev)
		}
		if np > 0 {
			prev = np
		}
	}
}

// TestExplainAndJSON pins the explanation surface: the transcript names the
// chosen plan and each rejection, and the Plan round-trips through JSON with
// the machine-readable fields intact.
func TestExplainAndJSON(t *testing.T) {
	cal := Defaults()
	p, err := cal.Choose(Workload{SrcRows: 2000, TgtRows: 2000, Dim: 64, MemoryBudgetBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	text := p.Explain()
	for _, want := range []string{"planner: workload 2000×2000 d=64", "chosen sparse", "rejected", "est wall", "est peak"} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain() missing %q:\n%s", want, text)
		}
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Chosen.Engine != p.Chosen.Engine || back.Chosen.Knobs != p.Chosen.Knobs {
		t.Errorf("JSON round-trip changed the chosen plan: %+v vs %+v", back.Chosen, p.Chosen)
	}
	if len(back.Rejected) != len(p.Rejected) {
		t.Errorf("JSON round-trip dropped rejections: %d vs %d", len(back.Rejected), len(p.Rejected))
	}
}

// TestWorkloadValidation pins the typed validation errors.
func TestWorkloadValidation(t *testing.T) {
	cal := Defaults()
	bad := []Workload{
		{SrcRows: 0, TgtRows: 10, Dim: 4},
		{SrcRows: 10, TgtRows: -1, Dim: 4},
		{SrcRows: 10, TgtRows: 10, Dim: 0},
		{SrcRows: 10, TgtRows: 10, Dim: 4, MemoryBudgetBytes: -1},
		{SrcRows: 10, TgtRows: 10, Dim: 4, TargetRecall: 1.5},
		{SrcRows: 10, TgtRows: 10, Dim: 4, TargetRecall: -0.5},
		{SrcRows: 10, TgtRows: 10, Dim: 4, TargetRecall: math.NaN()},
		{SrcRows: 10, TgtRows: 10, Dim: 4, CandidateBudget: -3},
	}
	for _, w := range bad {
		if _, err := cal.Choose(w); !errors.Is(err, ErrBadWorkload) {
			t.Errorf("Choose(%+v) = %v, want ErrBadWorkload", w, err)
		}
	}
}

// TestRecallCurve pins the curve algebra: monotone evaluation, inversion
// consistency (Eval(Invert(t)) ≥ t), and the exact endpoint.
func TestRecallCurve(t *testing.T) {
	rc := Defaults().Recall
	prev := -1.0
	for f := 0.0; f <= 1.0; f += 0.01 {
		r := rc.Eval(f)
		if r < prev-1e-12 {
			t.Fatalf("Eval not monotone at %f: %f < %f", f, r, prev)
		}
		prev = r
	}
	if got := rc.Eval(1); got != 1 {
		t.Errorf("Eval(1) = %f, want 1", got)
	}
	for _, target := range []float64{0.1, 0.3, 0.5, 0.65, 0.9, 0.99, 1} {
		f, ok := rc.Invert(target)
		if !ok {
			t.Fatalf("Invert(%f) not reachable", target)
		}
		if got := rc.Eval(f); got < target-1e-9 {
			t.Errorf("Eval(Invert(%f)) = %f below target", target, got)
		}
	}
}

// TestPlannedKnobsAreReproducible asserts the chosen knobs fully determine
// the engine: re-planning the same workload yields identical knobs (the
// bit-identity contract leans on this determinism).
func TestPlannedKnobsAreReproducible(t *testing.T) {
	cal := Defaults()
	w := Workload{SrcRows: 30000, TgtRows: 30000, Dim: 64, TargetRecall: 0.9}
	a, err := cal.Choose(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cal.Choose(w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Chosen.Knobs != b.Chosen.Knobs || a.Chosen.Engine != b.Chosen.Engine {
		t.Errorf("planning is not deterministic: %+v vs %+v", a.Chosen, b.Chosen)
	}
}
