package matrix

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestTopKOfSliceBasic(t *testing.T) {
	tk := topKOfSlice([]float64{3, 1, 4, 1, 5, 9, 2, 6}, 3)
	wantVals := []float64{9, 6, 5}
	wantIdx := []int{5, 7, 4}
	for i := range wantVals {
		if tk.Values[i] != wantVals[i] || tk.Indices[i] != wantIdx[i] {
			t.Fatalf("top-3 = %v/%v, want %v/%v", tk.Values, tk.Indices, wantVals, wantIdx)
		}
	}
}

func TestTopKLargerThanRow(t *testing.T) {
	tk := topKOfSlice([]float64{2, 1}, 5)
	if len(tk.Values) != 2 || tk.Values[0] != 2 || tk.Values[1] != 1 {
		t.Fatalf("got %v", tk.Values)
	}
}

func TestTopKZero(t *testing.T) {
	tk := topKOfSlice([]float64{1, 2}, 0)
	if len(tk.Values) != 0 {
		t.Fatalf("k=0 returned %v", tk.Values)
	}
}

func TestTopKTieBreaksByIndex(t *testing.T) {
	tk := topKOfSlice([]float64{5, 5, 5, 5}, 2)
	if tk.Indices[0] != 0 || tk.Indices[1] != 1 {
		t.Fatalf("tie indices = %v, want [0 1]", tk.Indices)
	}
}

// TestTopKMatchesSort is the property test: heap-based top-k must agree
// with a full sort for any input.
func TestTopKMatchesSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		k := 1 + rng.Intn(n)
		row := make([]float64, n)
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		tk := topKOfSlice(row, k)
		sorted := append([]float64(nil), row...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		for i := 0; i < k; i++ {
			if tk.Values[i] != sorted[i] {
				return false
			}
			if row[tk.Indices[i]] != tk.Values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRowTopK(t *testing.T) {
	m, _ := NewFromData(2, 4, []float64{1, 3, 2, 0, -1, -5, -2, -3})
	tks := m.RowTopK(2)
	if tks[0].Indices[0] != 1 || tks[0].Indices[1] != 2 {
		t.Fatalf("row 0 top-2 indices = %v", tks[0].Indices)
	}
	if tks[1].Indices[0] != 0 || tks[1].Indices[1] != 2 {
		t.Fatalf("row 1 top-2 indices = %v", tks[1].Indices)
	}
}

func TestRowTopKMeans(t *testing.T) {
	m, _ := NewFromData(1, 4, []float64{1, 2, 3, 4})
	got := m.RowTopKMeans(2)
	if got[0] != 3.5 {
		t.Fatalf("mean of top-2 = %v, want 3.5", got[0])
	}
	all := m.RowTopKMeans(10)
	if all[0] != 2.5 {
		t.Fatalf("mean of all = %v, want 2.5", all[0])
	}
}

func TestColTopKMeansMatchesTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(rng, 1+rng.Intn(25), 1+rng.Intn(25))
		k := 1 + rng.Intn(m.Rows())
		direct := m.ColTopKMeans(k)
		viaT := m.Transpose().RowTopKMeans(k)
		for j := range direct {
			if diff := direct[j] - viaT[j]; diff > 1e-12 || diff < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestColTopKMeansEdge(t *testing.T) {
	m := New(3, 0)
	if got := m.ColTopKMeans(2); len(got) != 0 {
		t.Fatalf("0-col matrix returned %v", got)
	}
	m2 := New(2, 2)
	if got := m2.ColTopKMeans(0); got[0] != 0 || got[1] != 0 {
		t.Fatalf("k=0 returned %v", got)
	}
}

func TestRowRanksInPlace(t *testing.T) {
	m, _ := NewFromData(2, 4, []float64{0.9, 0.1, 0.5, 0.7, 1, 2, 3, 4})
	m.RowRanksInPlace()
	want0 := []float64{1, 4, 3, 2}
	want1 := []float64{4, 3, 2, 1}
	for j := range want0 {
		if m.At(0, j) != want0[j] {
			t.Fatalf("row 0 ranks = %v, want %v", m.Row(0), want0)
		}
		if m.At(1, j) != want1[j] {
			t.Fatalf("row 1 ranks = %v, want %v", m.Row(1), want1)
		}
	}
}

// TestRowRanksPermutation checks the property that every row of the rank
// matrix is a permutation of 1..cols.
func TestRowRanksPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(rng, 1+rng.Intn(20), 1+rng.Intn(20))
		m.RowRanksInPlace()
		for i := 0; i < m.Rows(); i++ {
			seen := make([]bool, m.Cols())
			for _, v := range m.Row(i) {
				r := int(v)
				if r < 1 || r > m.Cols() || seen[r-1] {
					return false
				}
				seen[r-1] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestRowRanksOrderPreserving: a higher value must receive a smaller rank.
func TestRowRanksOrderPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	orig := randMatrix(rng, 8, 30)
	ranked := orig.Clone()
	ranked.RowRanksInPlace()
	for i := 0; i < orig.Rows(); i++ {
		for a := 0; a < orig.Cols(); a++ {
			for b := 0; b < orig.Cols(); b++ {
				if orig.At(i, a) > orig.At(i, b) && ranked.At(i, a) >= ranked.At(i, b) {
					t.Fatalf("row %d: value %v ranked %v, value %v ranked %v",
						i, orig.At(i, a), ranked.At(i, a), orig.At(i, b), ranked.At(i, b))
				}
			}
		}
	}
}

// TestRankingAllocatesNothingWarm pins the pooled scratch of the ranking
// primitive: once a ranker of the row's size is in the pool, ranking a row
// allocates nothing, and RowRanksInPlace costs its two driver closures however
// many rows it ranks. (GOMAXPROCS is pinned because sync.Pool caches per P.)
func TestRankingAllocatesNothingWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of Puts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(5))
	m := randMatrix(rng, 64, 500)
	vals := append([]float64(nil), m.Row(0)...)
	key := make([]int32, len(vals))
	for i, k := range rng.Perm(len(vals)) {
		key[i] = int32(k)
	}
	order := make([]int32, len(vals))
	short := InsertionRankMax // a candidate block: the insertion path
	for name, rank := range map[string]func(){
		"OrderDesc":            func() { OrderDesc(order, vals) },
		"RanksDesc":            func() { RanksDesc(order, vals) },
		"OrderDescByKey":       func() { OrderDescByKey(order, vals, key) },
		"OrderDescByKey/short": func() { OrderDescByKey(order[:short], vals[:short], key[:short]) },
	} {
		rank() // warm
		if allocs := testing.AllocsPerRun(50, rank); allocs != 0 {
			t.Errorf("%s allocates %v times per row on warmed scratch, want 0", name, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(10, m.RowRanksInPlace); allocs > 2 {
		t.Errorf("RowRanksInPlace allocates %v times for %d rows, want its 2 closures", allocs, m.Rows())
	}
}
