package entmatcher

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"entmatcher/internal/ann"
	"entmatcher/internal/conformance"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
	"entmatcher/internal/shard"
	"entmatcher/internal/sim"
)

// memoCand sits below the task width, so the graphs are properly truncated.
const memoCand = 12

type memoTwin struct {
	key string
	new func() Matcher
}

// memoTwins are the five sparse matchers, keyed for the order tests, with
// CSLS at the given k: k = 1 is the default of every caller and the one whose
// column statistic the memo may read off a held reverse graph, k = 3 the one
// it must always build.
func memoTwins(cslsK int) []memoTwin {
	return []memoTwin{
		{"rinf", func() Matcher { return NewRInfSparse(memoCand) }},
		{"csls", func() Matcher { return NewCSLSSparse(memoCand, cslsK) }},
		{"hun", func() Matcher { return NewHungarianSparse(memoCand) }},
		{"smat", func() Matcher { return NewSMatSparse(memoCand) }},
		{"sink", func() Matcher { return NewSinkhornSparse(memoCand, 4) }},
	}
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

// TestMemoEveryEngineEveryOrder: on every engine, for every order of the
// five sparse matchers and for CSLS at k = 1 (derivable) and k = 3 (not), a
// memoized run returns the pairs and scores a fresh un-memoized source
// returns, bit for bit, and does so again on a second round served wholly
// from the memo.
func TestMemoEveryEngineEveryOrder(t *testing.T) {
	d := memoDataset(t)
	orders := permutations(5)
	if testing.Short() {
		orders = orders[:12]
	}
	for name, run := range memoEngines(t, d) {
		raw := run.graphs.Source()
		for _, cslsK := range []int{1, 3} {
			twins := memoTwins(cslsK)
			want := make([]*MatchResult, len(twins))
			for i, tw := range twins {
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
						got, err := twins[i].new().Match(&ctx)
						if err != nil {
							t.Fatalf("%s/%s memoized: %v", name, twins[i].key, err)
						}
						if !samePairs(want[i], got) {
							t.Fatalf("%s CSLS k=%d order %v round %d: %s differs from the un-memoized run", name, cslsK, order, round, twins[i].key)
						}
					}
				}
				if st := memo.Stats(); st.Hits < int64(len(twins)) {
					t.Fatalf("%s CSLS k=%d order %v: %d memo hits over two rounds, want the second round (at least) served from it", name, cslsK, order, st.Hits)
				}
			}
		}
	}
}

// TestGraphOnceAcrossMatchers pins the tentpole's accounting through the
// public API: the five sparse matchers on one prepared exact run stream the
// tables once at CSLS k = 1 (forward+reverse; the column statistic comes
// with the reverse graph) and twice at k = 3 (the column heaps alone need
// their own pass) instead of five times; ForgetGraphs makes the next matcher
// cold again; Close drops the graphs; dense runs never touch a memo, and a
// dummy-padded match never memoizes (its exact tile pass is counted).
func TestGraphOnceAcrossMatchers(t *testing.T) {
	d := memoDataset(t)
	prepare := func() *Run {
		run, err := NewPipeline(PipelineConfig{Model: ModelRREA, CandidateBudget: memoCand, WithValidation: true}).Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	fiveMatchers := func(run *Run, cslsK int) GraphStats {
		for _, tw := range memoTwins(cslsK) {
			if _, _, err := run.Match(tw.new()); err != nil {
				t.Fatalf("%s: %v", tw.key, err)
			}
		}
		return run.GraphStats()
	}
	if st := fiveMatchers(prepare(), 1); st.Builds != 1 || st.Hits != 4 || st.Passes != 1 || st.Derived != 1 || st.Bytes == 0 {
		t.Fatalf("after five matchers at CSLS k=1: %+v, want 1 build, 4 hits, 1 tile pass, 1 derived part", st)
	}
	run := prepare()
	st := fiveMatchers(run, 3)
	if st.Builds != 2 || st.Hits != 3 || st.Passes != 2 || st.Derived != 1 || st.Bytes == 0 {
		t.Fatalf("after five matchers at CSLS k=3: %+v, want 2 builds, 3 hits, 2 tile passes, 1 derived part (unused k = 1 means)", st)
	}
	if _, _, err := run.MatchWithAbstention(NewSMatSparse(memoCand), 0.3); err != nil {
		t.Fatal(err)
	}
	st.Passes++
	if got := run.GraphStats(); got != st {
		t.Fatalf("a dummy-padded match: memo %+v, want %+v (one more tile pass, nothing memoized)", got, st)
	}
	run.ForgetGraphs()
	if _, _, err := run.Match(NewSMatSparse(memoCand)); err != nil {
		t.Fatal(err)
	}
	if got := run.GraphStats(); got.Builds != 3 || got.Passes != 4 {
		t.Fatalf("after ForgetGraphs: %+v, want a third build and a fourth pass", got)
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
		twins := memoTwins(1)
		want := make([]*MatchResult, len(twins))
		for i, tw := range twins {
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
					i := (g + n) % len(twins)
					got, _, err := run.Match(twins[i].new())
					if err != nil {
						t.Errorf("goroutine %d: %s: %v", g, twins[i].key, err)
						return
					}
					if !samePairs(want[i], got) {
						t.Errorf("goroutine %d: %s differs from the sequential run", g, twins[i].key)
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

// memoTables is a clustered embedding pair small enough to scan by hand and
// large enough for four IVF cells and three shards.
func memoTables(seed int64) (src, tgt *matrix.Dense) {
	rng := rand.New(rand.NewSource(seed))
	centers := matrix.New(4, 6)
	for i := range centers.Data() {
		centers.Data()[i] = rng.NormFloat64()
	}
	table := func(n int) *matrix.Dense {
		m := matrix.New(n, 6)
		for i := 0; i < n; i++ {
			for x, c := range centers.Row(rng.Intn(4)) {
				m.Row(i)[x] = c + 0.3*rng.NormFloat64()
			}
		}
		return m
	}
	return table(40), table(33)
}

// TestMemoDerivedMeansEveryProducer pins the derivation's contract per
// producer: a memo's first reverse build returns the k = 1 column means with
// it, bit for bit what the un-memoized BuildCandGraphWithColMeans(src, c, 1)
// returns for the wrapped source, and CSLS after it is a hit — off the
// reverse graph's row heads on the exhaustive pass and the shard
// sub-builds, from the reverse search on the index producers.
func TestMemoDerivedMeansEveryProducer(t *testing.T) {
	cc := context.Background()
	check := func(name string, raw matrix.TileSource, memo *matrix.GraphMemo, c int) {
		t.Helper()
		if _, _, err := matrix.BuildCandGraphs(cc, memo, c, c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before := memo.Stats()
		_, got, err := matrix.BuildCandGraphWithColMeans(cc, memo, c, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, want, err := matrix.BuildCandGraphWithColMeans(cc, raw, c, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for j := range want {
			if len(got) != len(want) || math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s c=%d: memoized k=1 means %v, un-memoized %v", name, c, got, want)
			}
		}
		if after := memo.Stats(); before.Derived != 1 || before.Builds != 1 || after.Derived != 1 || after.Builds != 1 || after.Hits != before.Hits+1 {
			t.Fatalf("%s c=%d: %+v -> %+v, want the means built with the reverse graph and served as a hit", name, c, before, after)
		}
	}

	// The exhaustive pass, on the adversarial score matrices: signed zeros,
	// ties at the head, 1-ulp neighbours, all-equal columns.
	nz := math.Copysign(0, -1)
	zeros, _ := matrix.NewFromData(3, 4, []float64{nz, 0, nz, -1, 0, nz, nz, -1, -1, -1, nz, nz})
	cases := append(conformance.AdversarialCases(7), conformance.Case{Name: "signed-zeros-3x4", S: zeros})
	for _, tc := range cases {
		for _, c := range []int{1, 2, tc.S.Rows() + tc.S.Cols()} {
			raw := &matrix.DenseTileSource{M: tc.S, TileRows: 2, TileCols: 3}
			check(tc.Name, raw, matrix.Memo(raw), c)
		}
	}

	src, tgt := memoTables(11)
	st, err := sim.NewStream(src, tgt, sim.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	sTab, tTab := st.PreparedTables()
	cfg := ann.Config{Clusters: 4, NProbe: 2, Seed: 1}
	newANN := func() *ann.Source {
		a, err := ann.NewSource(st, sTab, tTab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	encode := func(m *matrix.Dense) *quant.Table {
		q, err := quant.Encode(cc, m)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	srcQ, tgtQ := encode(sTab), encode(tTab)

	plain := newANN()
	check("ann", plain, matrix.Memo(plain), 5)

	// An IVF whose reverse index has an empty cell sitting exactly on target
	// 0's row: at nprobe = 1 that column surfaces no neighbour, its reverse
	// row is empty and its mean is 0 on both paths.
	_, rev, err := newANN().ExportIndexes(cc, true)
	if err != nil {
		t.Fatal(err)
	}
	holed := *rev
	holed.K++
	holed.Centroids = append(append([]float64(nil), rev.Centroids...), tTab.Row(0)...)
	holed.ListPtr = append(append([]int64(nil), rev.ListPtr...), int64(rev.N))
	revIVF, err := ann.FromData(&holed)
	if err != nil {
		t.Fatal(err)
	}
	one := cfg
	one.NProbe = 1
	sparse, err := ann.NewSourceWithIndexes(st, sTab, tTab, one, nil, revIVF)
	if err != nil {
		t.Fatal(err)
	}
	_, revGraph, err := matrix.BuildCandGraphs(cc, sparse, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cols, _ := revGraph.Row(0); len(cols) != 0 {
		t.Fatalf("target 0 surfaced %d neighbours through an empty cell", len(cols))
	}
	check("ann-empty-column", sparse, matrix.Memo(sparse), 5)

	sh, err := shard.NewSource(st, sTab, tTab, sim.Cosine, shard.Config{Shards: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	check("shard", sh, matrix.Memo(sh), 5)

	// SQ8: the re-rank pool grows with the budget, so the means are the
	// reverse scan's by-product rather than its heads. The ann source is
	// switched after its memo was created.
	q, err := quant.NewSource(st, sTab, tTab, srcQ, tgtQ, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	check("quant", q, matrix.Memo(q), 5)
	toggled := newANN()
	memo := matrix.Memo(toggled)
	if err := toggled.EnableQuant(srcQ, tgtQ, 0, true); err != nil {
		t.Fatal(err)
	}
	check("ann+quant", toggled, memo, 5)
}
