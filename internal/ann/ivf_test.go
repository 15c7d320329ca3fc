package ann

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"entmatcher/internal/matrix"
	"entmatcher/internal/sim"
)

// randTable returns an n×d table of unit-normalized rows drawn from nClust
// Gaussian bumps — the clustered geometry entity embeddings actually have,
// which is what gives IVF probing its recall.
func randTable(rng *rand.Rand, n, d, nClust int) *matrix.Dense {
	centers := make([][]float64, nClust)
	for c := range centers {
		centers[c] = make([]float64, d)
		for x := range centers[c] {
			centers[c][x] = rng.NormFloat64()
		}
	}
	m := matrix.New(n, d)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		ctr := centers[rng.Intn(nClust)]
		var nrm float64
		for x := range row {
			row[x] = ctr[x] + 0.3*rng.NormFloat64()
			nrm += row[x] * row[x]
		}
		nrm = math.Sqrt(nrm)
		for x := range row {
			row[x] /= nrm
		}
	}
	return m
}

// naiveSearch is the exhaustive oracle: all inner products per query, top-c
// in (value desc, index asc) order, computed with the same Dot4 kernel the
// index uses.
func naiveSearch(queries, corpus *matrix.Dense, c int) []matrix.TopK {
	scores := matrix.New(queries.Rows(), corpus.Rows())
	for i := 0; i < queries.Rows(); i++ {
		row := scores.Row(i)
		for j := 0; j < corpus.Rows(); j++ {
			row[j] = matrix.Dot4(queries.Row(i), corpus.Row(j))
		}
	}
	return scores.RowTopK(c)
}

func topKEqual(a, b matrix.TopK) bool {
	if len(a.Values) != len(b.Values) || len(a.Indices) != len(b.Indices) {
		return false
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] || a.Indices[i] != b.Indices[i] {
			return false
		}
	}
	return true
}

// TestSearchExactAtFullNProbe: with nprobe = Clusters every corpus point is
// scored, so the result must equal the exhaustive top-c selection
// bit-for-bit — for several cluster counts, budgets, and corpus shapes.
func TestSearchExactAtFullNProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, nq, d, k, c int }{
		{60, 25, 16, 4, 5},
		{60, 25, 16, 1, 60},  // single cell
		{60, 25, 16, 60, 7},  // one point per cell
		{33, 10, 24, 6, 40},  // c > corpus
		{1, 3, 16, 3, 2},     // clusters > corpus
		{50, 20, 7, 5, 5},    // short vectors (scalar dot path)
		{64, 16, 64, 8, 64},  // embed-dim-sized
	} {
		corpus := randTable(rng, tc.n, tc.d, 3)
		queries := randTable(rng, tc.nq, tc.d, 3)
		ivf, err := Build(context.Background(), corpus, Config{Clusters: tc.k, Seed: 11})
		if err != nil {
			t.Fatalf("%+v: Build: %v", tc, err)
		}
		got, err := ivf.Search(context.Background(), queries, tc.c, ivf.Clusters())
		if err != nil {
			t.Fatalf("%+v: Search: %v", tc, err)
		}
		want := naiveSearch(queries, corpus, tc.c)
		for i := range want {
			if !topKEqual(got[i], want[i]) {
				t.Fatalf("%+v: query %d differs from oracle\ngot  %+v\nwant %+v", tc, i, got[i], want[i])
			}
		}
	}
}

// TestSearchDeterministic: the same (data, Config) builds the identical
// index and returns the identical results, including at partial nprobe.
func TestSearchDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	corpus := randTable(rng, 200, 32, 5)
	queries := randTable(rng, 40, 32, 5)
	cfg := Config{Clusters: 14, Seed: 5}
	var prev []matrix.TopK
	for run := 0; run < 2; run++ {
		ivf, err := Build(context.Background(), corpus, cfg)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		got, err := ivf.Search(context.Background(), queries, 10, 3)
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		if run > 0 {
			for i := range got {
				if !topKEqual(got[i], prev[i]) {
					t.Fatalf("run %d query %d differs: %+v vs %+v", run, i, got[i], prev[i])
				}
			}
		}
		prev = got
	}
}

// TestSearchPartialNProbeRecall: on clustered data, modest probing must
// recover most of the exact top-c. The data and seeds are fixed, so this is
// a pinned regression point, not a statistical assertion.
func TestSearchPartialNProbeRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	corpus := randTable(rng, 600, 32, 8)
	queries := randTable(rng, 120, 32, 8)
	ivf, err := Build(context.Background(), corpus, Config{Clusters: 24, Seed: 3})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const c = 10
	want := naiveSearch(queries, corpus, c)
	got, err := ivf.Search(context.Background(), queries, c, 6)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	var hit, total int
	for i := range want {
		exact := make(map[int]bool, len(want[i].Indices))
		for _, j := range want[i].Indices {
			exact[j] = true
		}
		for _, j := range got[i].Indices {
			if exact[j] {
				hit++
			}
		}
		total += len(want[i].Indices)
	}
	if recall := float64(hit) / float64(total); recall < 0.9 {
		t.Fatalf("recall@%d = %.3f at nprobe 6/24, want >= 0.9", c, recall)
	}
}

// TestBuildAndSearchValidation: malformed inputs are rejected.
func TestBuildAndSearchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	corpus := randTable(rng, 20, 8, 2)
	if _, err := Build(context.Background(), nil, Config{}); err == nil {
		t.Error("Build(nil) accepted")
	}
	ivf, err := Build(context.Background(), corpus, Config{Clusters: 4, Seed: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := ivf.Search(context.Background(), nil, 3, 1); err == nil {
		t.Error("Search(nil queries) accepted")
	}
	if _, err := ivf.Search(context.Background(), matrix.New(2, 5), 3, 1); err == nil {
		t.Error("Search with mismatched dim accepted")
	}
	if _, err := ivf.Search(context.Background(), corpus, 0, 1); err == nil {
		t.Error("Search with c=0 accepted")
	}
}

// TestBuildCancellation: a canceled context aborts training with the
// context's error instead of returning a half-built index.
func TestBuildCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	corpus := randTable(rng, 300, 32, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, corpus, Config{Clusters: 10}); err == nil {
		t.Fatal("Build with canceled context succeeded")
	}
}

// TestSizeBytesAccounting: the reported footprint covers the slab, ids,
// pointers, and quantizer.
func TestSizeBytesAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	corpus := randTable(rng, 100, 16, 2)
	ivf, err := Build(context.Background(), corpus, Config{Clusters: 8, Seed: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	min := int64(100*16*8 + 100*4) // slab + ids alone
	if got := ivf.SizeBytes(); got < min {
		t.Fatalf("SizeBytes = %d, want >= %d", got, min)
	}
	if ivf.Len() != 100 || ivf.Clusters() != 8 {
		t.Fatalf("Len/Clusters = %d/%d, want 100/8", ivf.Len(), ivf.Clusters())
	}
}

// newTestSource builds a cosine stream plus an ANN source over a random pair
// of tables.
func newTestSource(t *testing.T, rng *rand.Rand, n, m, d int, cfg Config) (*sim.Stream, *Source) {
	t.Helper()
	src := randTable(rng, n, d, 4)
	tgt := randTable(rng, m, d, 4)
	st, err := sim.NewStream(src, tgt, sim.Cosine)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	sTab, tTab := st.PreparedTables()
	as, err := NewSource(st, sTab, tTab, cfg)
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	return st, as
}

// TestSourceExactAtFullCoverage: at nprobe = Clusters the producer's graphs
// — forward, reverse, and the kCol=1 column means — are bit-identical to
// the exhaustive builders'.
func TestSourceExactAtFullCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const k = 9
	st, as := newTestSource(t, rng, 80, 70, 24, Config{Clusters: k, NProbe: k, Seed: 2})
	ctx := context.Background()
	const c, cRev = 7, 5

	wantFwd, wantRev, err := matrix.BuildCandGraphs(ctx, st, c, cRev)
	if err != nil {
		t.Fatalf("BuildCandGraphs(exact): %v", err)
	}
	gotFwd, gotRev, err := matrix.BuildCandGraphs(ctx, as, c, cRev)
	if err != nil {
		t.Fatalf("BuildCandGraphs(ann): %v", err)
	}
	assertGraphsEqual(t, "fwd", gotFwd, wantFwd)
	assertGraphsEqual(t, "rev", gotRev, wantRev)

	wantG, wantMeans, err := matrix.BuildCandGraphWithColMeans(ctx, st, c, 1)
	if err != nil {
		t.Fatalf("BuildCandGraphWithColMeans(exact): %v", err)
	}
	gotG, gotMeans, err := matrix.BuildCandGraphWithColMeans(ctx, as, c, 1)
	if err != nil {
		t.Fatalf("BuildCandGraphWithColMeans(ann): %v", err)
	}
	assertGraphsEqual(t, "colmeans fwd", gotG, wantG)
	for j := range wantMeans {
		if gotMeans[j] != wantMeans[j] {
			t.Fatalf("col %d mean (kCol=1): got %v, want %v", j, gotMeans[j], wantMeans[j])
		}
	}
}

// TestSourceDispatch: BuildCandGraph on the wrapped source goes through the
// producer (same graph as calling the producer directly), and WithNProbe
// views share the trained index while changing coverage.
func TestSourceDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	_, as := newTestSource(t, rng, 120, 110, 16, Config{Clusters: 10, NProbe: 2, Seed: 4})
	ctx := context.Background()
	g1, err := matrix.BuildCandGraph(ctx, as, 6)
	if err != nil {
		t.Fatalf("BuildCandGraph(ann): %v", err)
	}
	g2, err := as.ProduceCandGraph(ctx, 6)
	if err != nil {
		t.Fatalf("ProduceCandGraph: %v", err)
	}
	assertGraphsEqual(t, "dispatch", g1, g2)
	full := as.WithNProbe(10)
	built, err := as.ForwardIndex(ctx)
	if err != nil {
		t.Fatalf("ForwardIndex: %v", err)
	}
	if shared, err := full.ForwardIndex(ctx); err != nil || shared != built {
		t.Errorf("WithNProbe view does not share index state (err %v)", err)
	}
	gf, err := full.ProduceCandGraph(ctx, 6)
	if err != nil {
		t.Fatalf("ProduceCandGraph(full): %v", err)
	}
	// Full coverage can only improve per-row head scores.
	h2, hf := g2.RowHeadScores(), gf.RowHeadScores()
	for i := range h2 {
		if h2[i] > hf[i] {
			t.Fatalf("row %d: partial-probe head %v beats full-probe head %v", i, h2[i], hf[i])
		}
	}
}

// TestNewSourceValidation: shape and config errors are rejected up front.
func TestNewSourceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	src := randTable(rng, 20, 8, 2)
	tgt := randTable(rng, 25, 8, 2)
	st, err := sim.NewStream(src, tgt, sim.Cosine)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	sTab, tTab := st.PreparedTables()
	if _, err := NewSource(nil, sTab, tTab, Config{}); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewSource(st, nil, tTab, Config{}); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := NewSource(st, tTab, sTab, Config{}); err == nil {
		t.Error("swapped tables (shape mismatch) accepted")
	}
	if _, err := NewSource(st, sTab, tTab, Config{Clusters: -1}); err == nil {
		t.Error("negative clusters accepted")
	}
	if _, err := NewSource(st, sTab, tTab, Config{Clusters: 4, NProbe: 9}); err == nil {
		t.Error("nprobe > clusters accepted")
	}
}

func assertGraphsEqual(t *testing.T, label string, got, want *matrix.CandGraph) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: shape/nnz mismatch: got %dx%d/%d, want %dx%d/%d", label,
			got.Rows(), got.Cols(), got.NNZ(), want.Rows(), want.Cols(), want.NNZ())
	}
	for i := 0; i < want.Rows(); i++ {
		gj, gs := got.Row(i)
		wj, ws := want.Row(i)
		if len(gj) != len(wj) {
			t.Fatalf("%s: row %d width %d vs %d", label, i, len(gj), len(wj))
		}
		for x := range wj {
			if gj[x] != wj[x] || gs[x] != ws[x] {
				t.Fatalf("%s: row %d entry %d: got (%d,%v), want (%d,%v)",
					label, i, x, gj[x], gs[x], wj[x], ws[x])
			}
		}
	}
}
