package matrix

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestBoundedTopKMatchesOfferInOrder: when candidates arrive in ascending
// index order — the regime minHeap.offer is specified for — BoundedTopK must
// select and order identically.
func TestBoundedTopKMatchesOfferInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(12)
		vals := make([]float64, n)
		for i := range vals {
			// Coarse quantization forces heavy ties.
			vals[i] = float64(rng.Intn(5)) / 4
		}
		h := minHeap{vals: make([]float64, 0, k), idx: make([]int, 0, k)}
		b := NewBoundedTopK(k)
		for j, v := range vals {
			h.offer(v, j, k)
			b.Offer(v, j)
		}
		want := h.finalize()
		got := b.Finalize()
		if !topKEqual(want, got) {
			t.Fatalf("trial %d (n=%d k=%d): in-order mismatch\nwant %v\ngot  %v", trial, n, k, want, got)
		}
	}
}

// TestBoundedTopKOrderInsensitive: offering the same candidate set in any
// permutation must yield the identical selection — the property the ANN
// query path (inverted-list arrival order) depends on, and the one
// minHeap.offer does NOT provide.
func TestBoundedTopKOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(12)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(5)) / 4
		}
		// Reference: ascending-index arrival through the canonical selector.
		ref := NewBoundedTopK(k)
		for j, v := range vals {
			ref.Offer(v, j)
		}
		want := ref.Finalize()

		perm := rng.Perm(n)
		b := NewBoundedTopK(k)
		for _, j := range perm {
			b.Offer(vals[j], j)
		}
		got := b.Finalize()
		if !topKEqual(want, got) {
			t.Fatalf("trial %d (n=%d k=%d): permuted arrival changed selection\nwant %v\ngot  %v",
				trial, n, k, want, got)
		}
	}
}

// TestBoundedTopKReset: Reset must fully clear state so a reused selector
// behaves like a fresh one.
func TestBoundedTopKReset(t *testing.T) {
	b := NewBoundedTopK(3)
	for j, v := range []float64{5, 1, 4, 2} {
		b.Offer(v, j)
	}
	_ = b.Finalize()
	b.Reset()
	for j, v := range []float64{0.5, 0.25, 0.75} {
		b.Offer(v, j)
	}
	got := b.Finalize()
	wantV := []float64{0.75, 0.5, 0.25}
	wantI := []int{2, 0, 1}
	if len(got.Values) != 3 {
		t.Fatalf("after reset: got %d values, want 3", len(got.Values))
	}
	for x := range wantV {
		if got.Values[x] != wantV[x] || got.Indices[x] != wantI[x] {
			t.Fatalf("after reset: got %v/%v, want %v/%v", got.Values, got.Indices, wantV, wantI)
		}
	}
}

// TestBoundedTopKZeroK: a k<=0 selector accepts offers and keeps nothing.
func TestBoundedTopKZeroK(t *testing.T) {
	for _, k := range []int{0, -3} {
		b := NewBoundedTopK(k)
		b.Offer(1.0, 0)
		b.Offer(2.0, 1)
		got := b.Finalize()
		if len(got.Values) != 0 || len(got.Indices) != 0 {
			t.Fatalf("k=%d: expected empty selection, got %v", k, got)
		}
	}
}

func topKEqual(a, b TopK) bool {
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

// TestNewCandGraphRoundTrip: assembling a graph from RowTopK selections must
// reproduce the exhaustive builder's CSR bit-for-bit.
func TestNewCandGraphRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	rows, cols, c := 17, 23, 6
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		r := m.Row(i)
		for j := range r {
			r[j] = float64(rng.Intn(7)) / 4
		}
	}
	want, err := BuildCandGraph(context.Background(), &DenseTileSource{M: m, TileRows: 5, TileCols: 7}, c)
	if err != nil {
		t.Fatalf("BuildCandGraph: %v", err)
	}
	got, err := NewCandGraph(cols, m.RowTopK(c))
	if err != nil {
		t.Fatalf("NewCandGraph: %v", err)
	}
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.NNZ() != want.NNZ() {
		t.Fatalf("shape mismatch: got %dx%d nnz=%d, want %dx%d nnz=%d",
			got.Rows(), got.Cols(), got.NNZ(), want.Rows(), want.Cols(), want.NNZ())
	}
	for i := 0; i < rows; i++ {
		gj, gs := got.Row(i)
		wj, ws := want.Row(i)
		if len(gj) != len(wj) {
			t.Fatalf("row %d: width %d vs %d", i, len(gj), len(wj))
		}
		for x := range gj {
			if gj[x] != wj[x] || gs[x] != ws[x] {
				t.Fatalf("row %d entry %d: got (%d,%v), want (%d,%v)", i, x, gj[x], gs[x], wj[x], ws[x])
			}
		}
	}
}

// TestNewCandGraphValidation: malformed rows must be rejected with ErrShape.
func TestNewCandGraphValidation(t *testing.T) {
	cases := []struct {
		name string
		cols int
		rows []TopK
	}{
		{"negative cols", -1, nil},
		{"length mismatch", 4, []TopK{{Values: []float64{1, 2}, Indices: []int{0}}}},
		{"column out of range high", 4, []TopK{{Values: []float64{1}, Indices: []int{4}}}},
		{"column out of range low", 4, []TopK{{Values: []float64{1}, Indices: []int{-1}}}},
		{"ascending values", 4, []TopK{{Values: []float64{1, 2}, Indices: []int{0, 1}}}},
		{"tie with descending index", 4, []TopK{{Values: []float64{1, 1}, Indices: []int{2, 1}}}},
		{"duplicate column", 4, []TopK{{Values: []float64{1, 1}, Indices: []int{2, 2}}}},
	}
	for _, tc := range cases {
		if _, err := NewCandGraph(tc.cols, tc.rows); err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
	// Empty rows and an empty graph are valid.
	g, err := NewCandGraph(4, []TopK{{}, {Values: []float64{2, 1}, Indices: []int{3, 0}}, {}})
	if err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	if g.Rows() != 3 || g.NNZ() != 2 {
		t.Fatalf("got rows=%d nnz=%d, want 3/2", g.Rows(), g.NNZ())
	}
	heads := g.RowHeadScores()
	if !math.IsInf(heads[0], -1) || heads[1] != 2 || !math.IsInf(heads[2], -1) {
		t.Fatalf("head scores %v", heads)
	}
}
