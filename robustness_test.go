package entmatcher

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPipelineConfigValidate(t *testing.T) {
	if err := (PipelineConfig{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if err := (PipelineConfig{Model: ModelRREA, Features: FeatureFused, Metric: MetricManhattan, Setting: SettingNonOneToOne}).Validate(); err != nil {
		t.Fatalf("full config rejected: %v", err)
	}
	if err := (PipelineConfig{Auto: true, MemoryBudgetBytes: 1 << 30}).Validate(); err != nil {
		t.Fatalf("planner memory budget rejected: %v", err)
	}
	bad := []PipelineConfig{
		{Model: 99},
		{Features: 99},
		{Metric: 99},
		{Setting: 99},
		{MemoryBudgetBytes: 1 << 30}, // a planner input: requires Auto
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("bad config %d: want ErrBadConfig, got %v", i, err)
		}
	}
}

func TestPrepareRejectsBadInput(t *testing.T) {
	if _, err := NewPipeline(PipelineConfig{}).Prepare(nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil dataset: %v", err)
	}
	if _, err := NewPipeline(PipelineConfig{Metric: 42}).Prepare(smallDataset(t)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad metric: %v", err)
	}
	d := smallDataset(t)
	if _, err := NewPipeline(PipelineConfig{}).PrepareWithEmbeddings(d, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil embeddings: %v", err)
	}
}

// TestPrepareRejectsNonFiniteEmbeddings: a poisoned embedding table is
// stopped at the similarity gate, not propagated into the score matrix.
func TestPrepareRejectsNonFiniteEmbeddings(t *testing.T) {
	d := smallDataset(t)
	emb, err := EncodeStructure(d, ModelGCN)
	if err != nil {
		t.Fatal(err)
	}
	emb.Source.Set(1, 2, math.NaN())
	if _, err := NewPipeline(PipelineConfig{}).PrepareWithEmbeddings(d, emb); !errors.Is(err, ErrNonFiniteEmbeddings) {
		t.Fatalf("want ErrNonFiniteEmbeddings, got %v", err)
	}
}

func TestRunWithContextCancellation(t *testing.T) {
	d := smallDataset(t)
	run, err := NewPipeline(PipelineConfig{}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	cc, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := run.WithContext(cc).Match(NewHungarian()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The original run is untouched and still works.
	if _, metrics, err := run.Match(NewDInf()); err != nil || metrics.F1 <= 0 {
		t.Fatalf("original run broken: F1=%v err=%v", metrics.F1, err)
	}
}

// openFDs counts this process's descriptors open on path, or -1 where
// /proc is not available.
func openFDs(path string) int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == path {
			n++
		}
	}
	return n
}

// TestRunCloseOnceAcrossWithContextCopies pins the documented Close
// contract: WithContext copies share the snapshot reader, whichever of them
// closes first releases it, and every Close returns nil. Closing the
// original after a copy used to close the file a second time
// (os.ErrClosed).
func TestRunCloseOnceAcrossWithContextCopies(t *testing.T) {
	d := smallDataset(t)
	path := filepath.Join(t.TempDir(), "prep.snap")
	base := PipelineConfig{Model: ModelRREA, CandidateBudget: 16}
	saveCfg := base
	saveCfg.SaveSnapshot = path
	if _, err := NewPipeline(saveCfg).Prepare(d); err != nil {
		t.Fatal(err)
	}
	loadCfg := base
	loadCfg.LoadSnapshot, loadCfg.OutOfCore = path, true
	for _, copyFirst := range []bool{true, false} {
		run, err := NewPipeline(loadCfg).Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		if n := openFDs(path); n != 1 && n != -1 {
			t.Fatalf("copyFirst=%v: %d descriptors on the snapshot while the run is open, want 1", copyFirst, n)
		}
		order := []*Run{run, run.WithContext(context.Background())}
		if copyFirst {
			order[0], order[1] = order[1], order[0]
		}
		for i, r := range order {
			if err := r.Close(); err != nil {
				t.Errorf("copyFirst=%v: Close #%d: %v", copyFirst, i+1, err)
			}
		}
		if n := openFDs(path); n > 0 {
			t.Errorf("copyFirst=%v: %d descriptors on the snapshot after Close, want 0", copyFirst, n)
		}
	}
}

// TestFallbackDegradesHungarianUnderDeadline is the PR's acceptance
// scenario: Hungarian on a DBP15K-profile task with a 1ms budget must come
// back quickly with a cheaper tier's answer — not an error, not a hang —
// and record the degradation.
func TestFallbackDegradesHungarianUnderDeadline(t *testing.T) {
	d, err := GenerateBenchmark(ProfileDBP15KZhEn, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewPipeline(PipelineConfig{Model: ModelRREA}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	// ~1500×1500: Hungarian needs seconds here, so a 1ms budget forces the
	// chain past it (and past RInf-pb) down to DInf, which answers in one
	// unbudgeted pass over the matrix.
	chain := NewFallback(time.Millisecond, NewHungarian(), NewRInfPB(50), NewDInf())
	start := time.Now()
	res, metrics, err := run.Match(chain)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("budgeted chain errored: %v", err)
	}
	if res.Matcher == "Hun." {
		t.Fatalf("Hungarian cannot finish %d×%d in 1ms; the budget was not enforced", run.S.Rows(), run.S.Cols())
	}
	found := false
	for _, name := range res.DegradedFrom {
		if name == "Hun." {
			found = true
		}
	}
	if !found {
		t.Fatalf("DegradedFrom = %v, want it to record Hun.", res.DegradedFrom)
	}
	if len(res.Pairs) == 0 || metrics.F1 < 0 {
		t.Fatalf("fallback tier produced no usable result: pairs=%d", len(res.Pairs))
	}
	// The budget plus the floor tier's single pass should be near-instant;
	// the generous bound only guards against a hang on slow CI machines.
	if elapsed > 5*time.Second {
		t.Fatalf("chain took %v, budget enforcement failed", elapsed)
	}
	t.Logf("degraded to %s in %v (F1=%.3f, tried %v)", res.Matcher, elapsed, metrics.F1, res.DegradedFrom)
}

// TestMatchRejectsPoisonedMatrix: the validation gate guards Run.Match
// itself, not just Prepare.
func TestMatchRejectsPoisonedMatrix(t *testing.T) {
	d := smallDataset(t)
	run, err := NewPipeline(PipelineConfig{}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	old := run.S.At(0, 0)
	run.S.Set(0, 0, math.Inf(1))
	defer run.S.Set(0, 0, old)
	if _, _, err := run.Match(NewDInf()); !errors.Is(err, ErrNonFiniteScores) {
		t.Fatalf("want ErrNonFiniteScores, got %v", err)
	}
}
