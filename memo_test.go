package entmatcher

import (
	"path/filepath"
	"sync"
	"testing"

	"entmatcher/internal/matrix"
)

// memoTwins are the five sparse matchers, keyed for the order tests. The
// budget sits below the task width, so the graphs are properly truncated.
const memoCand = 12

var memoTwins = []struct {
	key string
	new func() Matcher
}{
	{"rinf", func() Matcher { return NewRInfSparse(memoCand) }},
	{"csls", func() Matcher { return NewCSLSSparse(memoCand, 3) }},
	{"hun", func() Matcher { return NewHungarianSparse(memoCand) }},
	{"smat", func() Matcher { return NewSMatSparse(memoCand) }},
	{"sink", func() Matcher { return NewSinkhornSparse(memoCand, 4) }},
}

func memoDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := GenerateBenchmark(ProfileDBP15KZhEn, 0.012)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// memoEngines prepares one run per candidate-graph engine.
func memoEngines(t *testing.T, d *Dataset) map[string]*Run {
	t.Helper()
	base := PipelineConfig{Model: ModelRREA, CandidateBudget: memoCand}
	cfgs := map[string]PipelineConfig{"exact": base, "ann": base, "quant": base, "ann_quant": base, "shard": base}
	for _, name := range []string{"ann", "ann_quant"} {
		c := cfgs[name]
		c.ANN = &ANNConfig{Clusters: 4, NProbe: 2, Seed: 1}
		cfgs[name] = c
	}
	for _, name := range []string{"quant", "ann_quant"} {
		c := cfgs[name]
		c.Quant = &QuantConfig{}
		cfgs[name] = c
	}
	sh := cfgs["shard"]
	sh.Shards = 3
	cfgs["shard"] = sh

	runs := make(map[string]*Run)
	for name, cfg := range cfgs {
		run, err := NewPipeline(cfg).Prepare(d)
		if err != nil {
			t.Fatalf("%s: prepare: %v", name, err)
		}
		runs[name] = run
	}
	snap := filepath.Join(t.TempDir(), "plain.snap")
	save := base
	save.SaveSnapshot = snap
	if _, err := NewPipeline(save).Prepare(d); err != nil {
		t.Fatalf("saving snapshot: %v", err)
	}
	ooc := sh
	ooc.LoadSnapshot, ooc.OutOfCore = snap, true
	run, err := NewPipeline(ooc).Prepare(d)
	if err != nil {
		t.Fatalf("shard_ooc: prepare: %v", err)
	}
	t.Cleanup(func() { run.Close() })
	runs["shard_ooc"] = run
	return runs
}

// permutations returns every order of 0..n-1 (Heap's algorithm).
func permutations(n int) [][]int {
	var out [][]int
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			out = append(out, append([]int(nil), a...))
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				a[i], a[k-1] = a[k-1], a[i]
			} else {
				a[0], a[k-1] = a[k-1], a[0]
			}
		}
	}
	rec(n)
	return out
}

func samePairs(a, b *MatchResult) bool {
	if len(a.Pairs) != len(b.Pairs) || len(a.Abstained) != len(b.Abstained) {
		return false
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] { // source, target and score bits
			return false
		}
	}
	for i := range a.Abstained {
		if a.Abstained[i] != b.Abstained[i] {
			return false
		}
	}
	return true
}

// TestMemoEveryEngineEveryOrder: on every engine and for every order of the
// five sparse matchers, a memoized run returns the pairs and scores a fresh
// un-memoized source returns, bit for bit, and does so again on a second
// round served wholly from the memo.
func TestMemoEveryEngineEveryOrder(t *testing.T) {
	d := memoDataset(t)
	orders := permutations(len(memoTwins))
	if testing.Short() {
		orders = orders[:12]
	}
	for name, run := range memoEngines(t, d) {
		raw := run.graphs.Source()
		want := make([]*MatchResult, len(memoTwins))
		for i, tw := range memoTwins {
			ctx := *run.Ctx
			ctx.Stream = raw
			res, err := tw.new().Match(&ctx)
			if err != nil {
				t.Fatalf("%s/%s un-memoized: %v", name, tw.key, err)
			}
			want[i] = res
		}
		for _, order := range orders {
			ctx := *run.Ctx
			memo := matrix.Memo(raw)
			ctx.Stream = memo
			for round := 0; round < 2; round++ {
				for _, i := range order {
					got, err := memoTwins[i].new().Match(&ctx)
					if err != nil {
						t.Fatalf("%s/%s memoized: %v", name, memoTwins[i].key, err)
					}
					if !samePairs(want[i], got) {
						t.Fatalf("%s order %v round %d: %s differs from the un-memoized run", name, order, round, memoTwins[i].key)
					}
				}
			}
			if st := memo.Stats(); st.Hits < int64(len(memoTwins)) {
				t.Fatalf("%s order %v: %d memo hits over two rounds, want the second round (at least) served from it", name, order, st.Hits)
			}
		}
	}
}

// TestGraphOnceAcrossMatchers pins the tentpole's accounting through the
// public API: the five sparse matchers on one prepared exact run stream the
// tables twice (forward+reverse, then the column heaps alone) instead of
// five times; ForgetGraphs makes the next matcher cold again; Close drops
// the graphs; dense runs and dummy-padded matches never touch a memo.
func TestGraphOnceAcrossMatchers(t *testing.T) {
	d := memoDataset(t)
	run, err := NewPipeline(PipelineConfig{Model: ModelRREA, CandidateBudget: memoCand, WithValidation: true}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, tw := range memoTwins {
		if _, _, err := run.Match(tw.new()); err != nil {
			t.Fatalf("%s: %v", tw.key, err)
		}
	}
	st := run.GraphStats()
	if st.Builds != 2 || st.Hits != 3 || st.Passes != 2 || st.Bytes == 0 {
		t.Fatalf("after five matchers: %+v, want 2 builds, 3 hits, 2 tile passes", st)
	}
	if _, _, err := run.MatchWithAbstention(NewSMatSparse(memoCand), 0.3); err != nil {
		t.Fatal(err)
	}
	if got := run.GraphStats(); got != st {
		t.Fatalf("a dummy-padded match moved the memo: %+v -> %+v", st, got)
	}
	run.ForgetGraphs()
	if _, _, err := run.Match(NewSMatSparse(memoCand)); err != nil {
		t.Fatal(err)
	}
	if got := run.GraphStats(); got.Builds != 3 || got.Passes != 3 {
		t.Fatalf("after ForgetGraphs: %+v, want a third build and pass", got)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if got := run.GraphStats().Bytes; got != 0 {
		t.Fatalf("Close left %d bytes of graphs in the memo", got)
	}

	dense, err := NewPipeline(PipelineConfig{Model: ModelRREA}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dense.Match(NewSMatSparse(memoCand)); err != nil {
		t.Fatal(err)
	}
	if got := dense.GraphStats(); got != (GraphStats{}) {
		t.Fatalf("dense run reports graph stats %+v", got)
	}
	dense.ForgetGraphs() // no memo: a no-op
}

// TestMemoConcurrentRunMatch races goroutines calling Run.Match with mixed
// matchers (and the odd ForgetGraphs) on one Run. Run under -race.
func TestMemoConcurrentRunMatch(t *testing.T) {
	d := memoDataset(t)
	for _, cfg := range []PipelineConfig{
		{Model: ModelRREA, CandidateBudget: memoCand},
		{Model: ModelRREA, CandidateBudget: memoCand, ANN: &ANNConfig{Clusters: 4, NProbe: 2, Seed: 1}, Quant: &QuantConfig{}},
	} {
		run, err := NewPipeline(cfg).Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]*MatchResult, len(memoTwins))
		for i, tw := range memoTwins {
			if want[i], _, err = run.Match(tw.new()); err != nil {
				t.Fatal(err)
			}
		}
		run.ForgetGraphs()
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := 0; n < 10; n++ {
					i := (g + n) % len(memoTwins)
					got, _, err := run.Match(memoTwins[i].new())
					if err != nil {
						t.Errorf("goroutine %d: %s: %v", g, memoTwins[i].key, err)
						return
					}
					if !samePairs(want[i], got) {
						t.Errorf("goroutine %d: %s differs from the sequential run", g, memoTwins[i].key)
						return
					}
					if g == 0 && n%4 == 3 {
						run.ForgetGraphs()
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
