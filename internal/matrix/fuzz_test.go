package matrix

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
)

// fuzzMatrix decodes fuzz bytes into a small matrix whose entries live on a
// dyadic grid (dense ties, exact arithmetic) with an occasional -Inf, the
// regime where the strict-greater comparisons and tie-break contracts of the
// row kernels actually bite. Returns nil when the input is too small to form
// a matrix.
func fuzzMatrix(data []byte, colsB byte) *Dense {
	cols := int(colsB%7) + 1
	rows := len(data) / cols
	if rows == 0 {
		return nil
	}
	if rows > 48 {
		rows = 48
	}
	m := New(rows, cols)
	vals := m.Data()
	for i := range vals {
		b := data[i]
		if b == 0xFF {
			vals[i] = math.Inf(-1)
		} else {
			vals[i] = float64(b>>3) / 32
		}
	}
	return m
}

// naiveTopK is the brute-force definition the heap must agree with: full sort
// by descending value with ties by ascending column, first min(k, cols).
func naiveTopK(row []float64, k int) TopK {
	order := make([]int, len(row))
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool {
		if row[order[a]] != row[order[b]] {
			return row[order[a]] > row[order[b]]
		}
		return order[a] < order[b]
	})
	if k > len(order) {
		k = len(order)
	}
	out := TopK{Values: make([]float64, k), Indices: make([]int, k)}
	for r := 0; r < k; r++ {
		out.Values[r] = row[order[r]]
		out.Indices[r] = order[r]
	}
	return out
}

// FuzzRowKernels cross-checks the fused row kernels against brute-force
// definitions and their streaming twins against the one-shot scans, on
// arbitrary tie-heavy inputs. Invariants:
//
//   - RowMax equals a naive strict-greater scan (first maximum wins,
//     all-(-Inf) rows yield index -1);
//   - RowTopK equals a full descending sort prefix for every k;
//   - RunningArgmax and RunningTopK fed tile-by-tile through a
//     DenseTileSource are bit-identical to the dense kernels for degenerate
//     1x1 tiles and a shape that splits rows and columns unevenly;
//   - ColTopKMeans agrees bitwise with a streamed ColTopKAcc;
//   - the streamed accumulators' heap arrays, before finalize, equal those of
//     one serial offer per score (the oracle of consumer_test.go);
//   - RowRanksInPlace emits a 1..cols permutation per row that inverts the
//     value ordering.
func FuzzRowKernels(f *testing.F) {
	f.Add([]byte{0, 8, 16, 8, 8, 0xFF, 32, 32, 1}, byte(2), byte(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 7, 7, 7, 7}, byte(3), byte(2))
	f.Add([]byte{200, 100, 200, 100, 200, 100}, byte(5), byte(6))
	f.Fuzz(func(t *testing.T, data []byte, colsB, kB byte) {
		m := fuzzMatrix(data, colsB)
		if m == nil {
			return
		}
		rows, cols := m.Rows(), m.Cols()

		maxVals, maxIdx := m.RowMax()
		for i := 0; i < rows; i++ {
			best, bi := math.Inf(-1), -1
			for j, v := range m.Row(i) {
				if v > best {
					best, bi = v, j
				}
			}
			if maxVals[i] != best || maxIdx[i] != bi {
				t.Fatalf("RowMax row %d = (%v, %d), naive = (%v, %d)", i, maxVals[i], maxIdx[i], best, bi)
			}
		}

		k := int(kB)%(cols+2) + 1
		for _, kk := range []int{1, k, cols, cols + 2} {
			got := m.RowTopK(kk)
			for i := 0; i < rows; i++ {
				want := naiveTopK(m.Row(i), kk)
				if !reflect.DeepEqual(got[i].Indices, want.Indices) ||
					!reflect.DeepEqual(got[i].Values, want.Values) {
					t.Fatalf("RowTopK(%d) row %d = %+v, naive = %+v", kk, i, got[i], want)
				}
			}
		}

		for _, shape := range [][2]int{{1, 1}, {2, 3}} {
			src := &DenseTileSource{M: m, TileRows: shape[0], TileCols: shape[1]}
			arg := NewRunningArgmax(rows)
			top := NewRunningTopK(rows, k)
			colAcc := NewColTopKAcc(cols, min(k, rows))
			ref := newSerialOffer(rows, cols, k, min(k, rows))
			if err := src.StreamTiles(context.Background(), arg, top, colAcc, ref); err != nil {
				t.Fatalf("StreamTiles %v: %v", shape, err)
			}
			checkHeapArrays(t, "RunningTopK", top.heaps, ref.rows)
			checkHeapArrays(t, "ColTopKAcc", colAcc.heaps, ref.cols)
			if !reflect.DeepEqual(arg.Vals, maxVals) || !reflect.DeepEqual(arg.Idx, maxIdx) {
				t.Fatalf("RunningArgmax tiles %v diverged from RowMax", shape)
			}
			if got, want := top.Finalize(), m.RowTopK(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("RunningTopK(%d) tiles %v = %+v, dense = %+v", k, shape, got, want)
			}
			if got, want := colAcc.Means(), m.ColTopKMeans(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("ColTopKAcc(%d) tiles %v = %v, dense = %v", k, shape, got, want)
			}
			g, err := BuildCandGraph(context.Background(), src, k)
			if err != nil {
				t.Fatalf("BuildCandGraph tiles %v: %v", shape, err)
			}
			for i := 0; i < rows; i++ {
				want := naiveTopK(m.Row(i), k)
				cand, scores := g.Row(i)
				if len(cand) != len(want.Indices) {
					t.Fatalf("CandGraph tiles %v row %d: %d candidates, naive %d", shape, i, len(cand), len(want.Indices))
				}
				for x := range cand {
					if int(cand[x]) != want.Indices[x] || scores[x] != want.Values[x] {
						t.Fatalf("CandGraph tiles %v row %d entry %d: (%d, %v), naive (%d, %v)",
							shape, i, x, cand[x], scores[x], want.Indices[x], want.Values[x])
					}
				}
			}
		}

		ranks := m.Clone()
		ranks.RowRanksInPlace()
		for i := 0; i < rows; i++ {
			row, orig := ranks.Row(i), m.Row(i)
			seen := make([]bool, cols)
			for _, v := range row {
				r := int(v)
				if float64(r) != v || r < 1 || r > cols || seen[r-1] {
					t.Fatalf("RowRanksInPlace row %d = %v, not a 1..%d permutation", i, row, cols)
				}
				seen[r-1] = true
			}
			for a := 0; a < cols; a++ {
				for b := a + 1; b < cols; b++ {
					if orig[a] > orig[b] && row[a] > row[b] {
						t.Fatalf("RowRanksInPlace row %d: value %v at col %d outranked by %v at col %d",
							i, orig[a], a, orig[b], b)
					}
					if orig[a] == orig[b] && row[a] > row[b] {
						t.Fatalf("RowRanksInPlace row %d: tie at cols %d,%d broken against column order", i, a, b)
					}
				}
			}
		}
	})
}

// FuzzCandGraph cross-checks the fused candidate-graph builder on arbitrary
// tie-heavy inputs: every forward row must equal the naive top-k oracle, the
// reverse graph must equal the forward graph of the transposed matrix, and
// the CSC view and column-sorted clone must be structurally consistent with
// the CSR storage.
func FuzzCandGraph(f *testing.F) {
	f.Add([]byte{0, 8, 16, 8, 8, 0xFF, 32, 32, 1}, byte(2), byte(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 7, 7, 7, 7}, byte(3), byte(2))
	f.Add([]byte{200, 100, 200, 100, 200, 100}, byte(5), byte(6))
	f.Fuzz(func(t *testing.T, data []byte, colsB, cB byte) {
		m := fuzzMatrix(data, colsB)
		if m == nil {
			return
		}
		rows, cols := m.Rows(), m.Cols()
		c := int(cB)%(cols+2) + 1
		cRev := int(cB)%(rows+2) + 1
		src := &DenseTileSource{M: m, TileRows: 2, TileCols: 3}
		fwd, rev, err := BuildCandGraphs(context.Background(), src, c, cRev)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			want := naiveTopK(m.Row(i), c)
			cand, scores := fwd.Row(i)
			if len(cand) != len(want.Indices) {
				t.Fatalf("fwd row %d: %d candidates, naive %d", i, len(cand), len(want.Indices))
			}
			for x := range cand {
				if int(cand[x]) != want.Indices[x] || scores[x] != want.Values[x] {
					t.Fatalf("fwd row %d entry %d: (%d, %v), naive (%d, %v)",
						i, x, cand[x], scores[x], want.Indices[x], want.Values[x])
				}
			}
		}
		mT := m.Transpose()
		for j := 0; j < cols; j++ {
			want := naiveTopK(mT.Row(j), cRev)
			cand, scores := rev.Row(j)
			if len(cand) != len(want.Indices) {
				t.Fatalf("rev row %d: %d candidates, naive %d", j, len(cand), len(want.Indices))
			}
			for x := range cand {
				if int(cand[x]) != want.Indices[x] || scores[x] != want.Values[x] {
					t.Fatalf("rev row %d entry %d: (%d, %v), naive (%d, %v)",
						j, x, cand[x], scores[x], want.Indices[x], want.Values[x])
				}
			}
		}
		// CSC view: every edge exactly once, ascending rows per column,
		// position join lands on the right column.
		v := fwd.CSCView()
		if v.ColPtr[cols] != int64(fwd.NNZ()) {
			t.Fatalf("CSC covers %d edges, graph has %d", v.ColPtr[cols], fwd.NNZ())
		}
		seen := make([]bool, fwd.NNZ())
		for j := 0; j < cols; j++ {
			prev := int32(-1)
			for x := v.ColPtr[j]; x < v.ColPtr[j+1]; x++ {
				if v.RowIdx[x] <= prev {
					t.Fatalf("CSC column %d rows not ascending", j)
				}
				prev = v.RowIdx[x]
				p := v.Pos[x]
				if seen[p] {
					t.Fatalf("CSR edge %d duplicated in CSC", p)
				}
				seen[p] = true
				cand, _ := fwd.Row(int(v.RowIdx[x]))
				found := false
				for _, jc := range cand {
					if jc == int32(j) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("CSC edge (%d,%d) missing from CSR row", v.RowIdx[x], j)
				}
			}
		}
		// Column-sorted clone: same per-row edge sets, ascending columns.
		w := fwd.ColSortedClone()
		for i := 0; i < rows; i++ {
			gc, gs := fwd.Row(i)
			wc, ws := w.Row(i)
			if len(gc) != len(wc) {
				t.Fatalf("clone row %d edge count %d, want %d", i, len(wc), len(gc))
			}
			set := make(map[int32]float64, len(gc))
			for x, j := range gc {
				set[j] = gs[x]
			}
			prev := int32(-1)
			for x, j := range wc {
				if j <= prev {
					t.Fatalf("clone row %d not ascending", i)
				}
				prev = j
				if s, ok := set[j]; !ok || s != ws[x] {
					t.Fatalf("clone row %d edge (%d, %v) not in original", i, j, ws[x])
				}
			}
		}
	})
}
