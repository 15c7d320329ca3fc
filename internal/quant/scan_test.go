package quant

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"entmatcher/internal/matrix"
	"entmatcher/internal/sim"
)

// scanMode is one kernel configuration of the scan core.
type scanMode struct {
	name   string
	quant  bool
	factor int
	rerank bool
}

var scanModes = []scanMode{
	{name: "f64"},
	{name: "i8-rerank", quant: true, factor: 2, rerank: true},
	{name: "i8-approx", quant: true, rerank: false},
}

func (m scanMode) search(sc *Scanner, q *matrix.Dense, c int, probe Probe) ([]matrix.TopK, error) {
	if m.quant {
		return sc.SearchQuant(context.Background(), q, c, probe, m.factor, m.rerank, 0, nil)
	}
	return sc.Search(context.Background(), q, c, probe)
}

// naive is the reference the scan core is pinned to: score every position of
// the probed runs one at a time, then sort. For the re-rank mode the pool is
// every position whose int8 score reaches the p-th largest.
func (m scanMode) naive(t *testing.T, sc *Scanner, q []float64, c int, runs []int) matrix.TopK {
	t.Helper()
	d := sc.Dim
	var pos []int
	for _, r := range runs {
		for p := sc.Bounds[r]; p < sc.Bounds[r+1]; p++ {
			pos = append(pos, int(p))
		}
	}
	scores := make([]float64, len(pos))
	keep := make([]bool, len(pos))
	if m.quant {
		codeQ := make([]int8, d)
		sq, err := sc.Table.QuantizeQuery(q, codeQ)
		if err != nil {
			t.Fatal(err)
		}
		ints := make([]int32, len(pos))
		for x, p := range pos {
			ints[x] = dotI8Scalar(codeQ, sc.Codes[p*d:(p+1)*d])
		}
		th := int32(math.MinInt32)
		if p := PoolSize(m.factor, min(c, sc.Table.rows), len(ints)); m.rerank && p < len(ints) {
			sorted := append([]int32(nil), ints...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a] > sorted[b] })
			th = sorted[p-1]
		}
		for x, p := range pos {
			keep[x] = ints[x] >= th
			scores[x] = sq * float64(ints[x])
			if m.rerank {
				scores[x] = matrix.Dot4(q, sc.Vecs[p*d:(p+1)*d])
			}
		}
	} else {
		for x, p := range pos {
			keep[x], scores[x] = true, matrix.Dot4(q, sc.Vecs[p*d:(p+1)*d])
		}
	}
	type cand struct {
		v  float64
		id int
	}
	var cands []cand
	for x, p := range pos {
		if keep[x] {
			cands = append(cands, cand{scores[x], sc.id(p)})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].v != cands[b].v {
			return cands[a].v > cands[b].v
		}
		return cands[a].id < cands[b].id
	})
	var out matrix.TopK
	for x := 0; x < len(cands) && x < c; x++ {
		out.Values = append(out.Values, cands[x].v)
		out.Indices = append(out.Indices, cands[x].id)
	}
	return out
}

func sameTopK(a, b matrix.TopK) bool {
	if len(a.Values) != len(b.Values) || len(a.Indices) != len(b.Indices) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) || a.Indices[i] != b.Indices[i] {
			return false
		}
	}
	return true
}

// cellScanner scatters corpus into a hand-laid cell slab — uneven cells, one
// of them empty, ids ascending within a cell — the shape ann.IVF hands the
// scan core.
func cellScanner(rng *rand.Rand, corpus *matrix.Dense, tq *Table, bounds []int64) *Scanner {
	n, d := corpus.Rows(), corpus.Cols()
	perm := rng.Perm(n)
	sc := &Scanner{
		Tag: "test", Dim: d, Bounds: bounds, Table: tq,
		IDs: make([]int32, n), Vecs: make([]float64, n*d), Codes: make([]int8, n*d),
	}
	for r := 0; r+1 < len(bounds); r++ {
		sort.Ints(perm[bounds[r]:bounds[r+1]])
	}
	for p, id := range perm {
		sc.IDs[p] = int32(id)
		copy(sc.Vecs[p*d:(p+1)*d], corpus.Row(id))
		copy(sc.Codes[p*d:(p+1)*d], tq.Row(id))
	}
	return sc
}

// TestScannerGroupsMatchGroupOfOne is the scan core's pin: for every kernel
// × candidate set × query count, each row of a grouped search equals the
// same row searched alone bit-for-bit — whichever slots of its group shared
// each run — and the row searched alone equals the naive score-and-sort
// reference. It runs at dimensions below, inside and past the float64
// kernels' 16-element step, over two cell layouts whose run lengths between
// them leave every remainder mod 6 and mod 3 (the tile kernel's row groups).
func TestScannerGroupsMatchGroupOfOne(t *testing.T) {
	for _, d := range []int{8, 20, 130} {
		for _, bounds := range [][]int64{
			{0, 13, 13, 30, 41, 60, 77, 90}, // runs 13, 0, 17, 11, 19, 17, 13
			{0, 13, 13, 30, 38, 59, 75, 90}, // runs 13, 0, 17, 8, 21, 16, 15
		} {
			scannerGroupsMatchGroupOfOne(t, d, bounds)
		}
	}
}

func scannerGroupsMatchGroupOfOne(t *testing.T, d int, bounds []int64) {
	rng := rand.New(rand.NewSource(61))
	const n, c = 90, 6
	corpus := randTable(rng, n, d)
	// Exact duplicates and an all-zero row: ties in both score domains.
	copy(corpus.Row(7), corpus.Row(70))
	copy(corpus.Row(8), corpus.Row(70))
	clear(corpus.Row(40))
	tq := mustEncode(t, corpus)
	queries := randTable(rng, 9, d)
	copy(queries.Row(4), corpus.Row(70))
	// An all-zero query ties every int8 score at the pool boundary: the
	// boundary-tie rule must then pool everything.
	clear(queries.Row(2))

	cells := cellScanner(rng, corpus, tq, bounds)
	// Every query probes cells 0 and 5 (every slot of a full group shares
	// them) plus one of 2..4 picked by the query (shared by part of a group
	// at most).
	partial := func(q []float64) []int { return []int{5, 2 + int(math.Abs(q[0])*1e3)%3, 0} }
	all := func([]float64) []int { return []int{6, 5, 4, 3, 2, 1, 0} }
	sets := []struct {
		name string
		sc   *Scanner
		runs func(q []float64) []int // nil: the flat scan
	}{
		{"flat", flatScanner(tq, corpus), nil},
		{"partial", cells, partial},
		{"full", cells, all},
	}
	for _, mode := range scanModes {
		for _, set := range sets {
			var probe Probe
			runs := func([]float64) []int { return flatRun }
			if set.runs != nil {
				runs = set.runs
				probe = func(q []float64, _ *matrix.BoundedTopK) []int { return set.runs(q) }
			}
			for _, nq := range []int{0, 1, 2, 3, 4, 5, 7, 9} {
				qs, err := matrix.NewFromData(nq, d, queries.Data()[:nq*d])
				if err != nil {
					t.Fatal(err)
				}
				got, err := mode.search(set.sc, qs, c, probe)
				if err != nil {
					t.Fatalf("d=%d %v %s/%s/nq=%d: %v", d, bounds, mode.name, set.name, nq, err)
				}
				if len(got) != nq {
					t.Fatalf("d=%d %v %s/%s/nq=%d: %d results", d, bounds, mode.name, set.name, nq, len(got))
				}
				for i := 0; i < nq; i++ {
					q1, _ := matrix.NewFromData(1, d, queries.Row(i))
					alone, err := mode.search(set.sc, q1, c, probe)
					if err != nil {
						t.Fatal(err)
					}
					if !sameTopK(got[i], alone[0]) {
						t.Fatalf("d=%d %v %s/%s/nq=%d row %d: grouped %v != alone %v", d, bounds, mode.name, set.name, nq, i, got[i], alone[0])
					}
					if want := mode.naive(t, set.sc, queries.Row(i), c, runs(queries.Row(i))); !sameTopK(alone[0], want) {
						t.Fatalf("d=%d %v %s/%s row %d: alone %v != naive %v", d, bounds, mode.name, set.name, i, alone[0], want)
					}
				}
			}
		}
		// A probe set made only of empty runs, and no probed run at all.
		for _, runs := range [][]int{{1}, {}} {
			got, err := mode.search(cells, queries, c, func([]float64, *matrix.BoundedTopK) []int { return runs })
			if err != nil {
				t.Fatal(err)
			}
			for i, tk := range got {
				if len(tk.Values) != 0 || len(tk.Indices) != 0 {
					t.Fatalf("d=%d %v %s: empty probe set %v row %d returned %v", d, bounds, mode.name, runs, i, tk)
				}
			}
		}
	}
}

// TestScannerArguments pins the walker's argument contract: what is rejected
// (under the owner's tag) and what is clamped.
func TestScannerArguments(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	corpus := randTable(rng, 10, 8)
	sc := flatScanner(mustEncode(t, corpus), corpus)
	for _, mode := range scanModes {
		for name, call := range map[string]func() ([]matrix.TopK, error){
			"nil queries": func() ([]matrix.TopK, error) { return mode.search(sc, nil, 3, nil) },
			"query dim":   func() ([]matrix.TopK, error) { return mode.search(sc, randTable(rng, 2, 7), 3, nil) },
			"budget":      func() ([]matrix.TopK, error) { return mode.search(sc, corpus, 0, nil) },
		} {
			if _, err := call(); err == nil || !strings.HasPrefix(err.Error(), "quant: ") {
				t.Errorf("%s/%s: err = %v, want a quant:-tagged rejection", mode.name, name, err)
			}
		}
		got, err := mode.search(sc, corpus, 1000, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, tk := range got {
			if len(tk.Indices) != 10 {
				t.Errorf("%s row %d: c above the corpus kept %d of 10", mode.name, i, len(tk.Indices))
			}
		}
	}
	// A kernel that cannot ready a query (a non-finite one does not fold
	// into int8) fails the whole call, whichever group it sat in.
	poisoned := randTable(rng, 6, 8)
	poisoned.Set(5, 2, math.Inf(1))
	if got, err := sc.SearchQuant(context.Background(), poisoned, 3, nil, 0, true, 0, nil); err == nil || got != nil {
		t.Errorf("non-finite query: %v, %v", got, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sc.Search(ctx, corpus, 3, nil); err != context.Canceled {
		t.Errorf("cancelled search: err = %v", err)
	}
}

// TestSearchRowsAllocsPooled is ann's TestSearchAllocsPooled for the flat
// path: Source.SearchRows pays for its escaping results and the gathered
// query table only, never per corpus row, and a warmed scratch is reused
// across calls.
func TestSearchRowsAllocsPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector bookkeeping")
	}
	rng := rand.New(rand.NewSource(63))
	measure := func(n int) float64 {
		src, tgt := randTable(rng, 8, 32), randTable(rng, n, 32)
		st, err := sim.NewStreamPrepared(src, tgt, sim.Cosine)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSource(st, src, tgt, mustEncode(t, src), mustEncode(t, tgt), 0, true)
		if err != nil {
			t.Fatal(err)
		}
		search := func() {
			if _, err := s.SearchRows(context.Background(), []int{0, 3, 5, 6}, 8); err != nil {
				t.Fatal(err)
			}
		}
		search() // warm the scratch pool at this geometry
		return testing.AllocsPerRun(20, search)
	}
	small, large := measure(64), measure(4096)
	if large > small+4 {
		t.Errorf("SearchRows allocations scale with corpus size: %v at n=64, %v at n=4096", small, large)
	}
	if large > 24 {
		t.Errorf("SearchRows costs %v allocations for 4 queries, want a small constant", large)
	}
}

// TestScannerEveryTier reruns the scan core's pin on every int8 kernel tier
// the host can run: whichever rows kernel scored the runs, grouped ≡ alone ≡
// the naive reference, whose int8 scores are dotI8Scalar's.
func TestScannerEveryTier(t *testing.T) {
	// That pin runs at d = 8, 20 and 130; a second corpus at d = 150 (whole
	// 32- and 64-byte steps, then a tail) is scanned flat and by cells on
	// every tier and held to the scalar tier's answer.
	rng := rand.New(rand.NewSource(65))
	corpus, queries := randTable(rng, 120, 150), randTable(rng, 7, 150)
	tq := mustEncode(t, corpus)
	cells := cellScanner(rng, corpus, tq, []int64{0, 31, 31, 64, 117, 120})
	someCells := func(q []float64, _ *matrix.BoundedTopK) []int { return []int{3, int(math.Abs(q[0])*1e3) % 3} }
	scan := func() [][]matrix.TopK {
		var out [][]matrix.TopK
		for _, sc := range []struct {
			sc    *Scanner
			probe Probe
		}{{flatScanner(tq, corpus), nil}, {cells, someCells}} {
			for _, rerank := range []bool{true, false} {
				got, err := sc.sc.SearchQuant(context.Background(), queries, 5, sc.probe, 2, rerank, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, got)
			}
		}
		return out
	}
	forceTier(t, tierScalar)
	want := scan()
	for _, tier := range hostTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			TestScannerGroupsMatchGroupOfOne(t)
			for i, got := range scan() {
				for row := range got {
					if !sameTopK(got[row], want[i][row]) {
						t.Fatalf("scan %d row %d: %v, scalar tier %v", i, row, got[row], want[i][row])
					}
				}
			}
		})
	}
}

// BenchmarkScanQuantFlat is one flat two-phase scan at the shape of the
// benchmark harness's sparse_indexed tables (5600 rows, d = 128, C = 64,
// default re-rank factor → a pool of 256): 512 queries, so the three stages
// — int8 scoring, pool selection, float64 re-rank — show in one profile in
// the proportions the engine runs them. "plain" is the scan alone,
// "colstat-k1" the same scan also returning the k = 1 column statistic, as a
// reverse build does for the graph memo; the two differ by the statistic's
// cost alone.
func BenchmarkScanQuantFlat(b *testing.B) {
	rng := rand.New(rand.NewSource(64))
	corpus := randTable(rng, 5600, 128)
	tq, err := Encode(context.Background(), corpus)
	if err != nil {
		b.Fatal(err)
	}
	sc := flatScanner(tq, corpus)
	queries := randTable(rng, 512, 128)
	means := make([]float64, queries.Rows())
	for _, bc := range []struct {
		name  string
		kCol  int
		means []float64
	}{{"plain", 0, nil}, {"colstat-k1", 1, means}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sc.SearchQuant(context.Background(), queries, 64, nil, 0, true, bc.kCol, bc.means); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
