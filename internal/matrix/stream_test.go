package matrix

import (
	"context"
	"math/rand"
	"testing"
)

// randMat fills a rows×cols matrix with uniform values, with a sprinkling of
// exact duplicates so tie-breaking paths are exercised.
func randMat(rng *rand.Rand, rows, cols int) *Dense {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	// Duplicate some values within rows and across rows to create exact ties.
	for t := 0; t < rows*cols/10; t++ {
		i, j, j2 := rng.Intn(rows), rng.Intn(cols), rng.Intn(cols)
		m.Set(i, j2, m.At(i, j))
	}
	return m
}

// tileShapes exercises tiles smaller than, equal to and larger than the
// matrix, plus shapes that do not divide the dimensions evenly.
var tileShapes = [][2]int{{1, 1}, {3, 5}, {7, 4}, {64, 64}, {1000, 1000}}

func TestRunningArgmaxMatchesRowMax(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range [][2]int{{17, 23}, {40, 9}, {9, 40}, {1, 1}} {
		m := randMat(rng, shape[0], shape[1])
		wantVals, wantIdx := m.RowMax()
		for _, ts := range tileShapes {
			acc := NewRunningArgmax(m.Rows())
			src := &DenseTileSource{M: m, TileRows: ts[0], TileCols: ts[1]}
			if err := src.StreamTiles(context.Background(), acc); err != nil {
				t.Fatal(err)
			}
			for i := range wantIdx {
				if acc.Idx[i] != wantIdx[i] || acc.Vals[i] != wantVals[i] {
					t.Fatalf("shape %v tiles %v row %d: got (%v,%d) want (%v,%d)",
						shape, ts, i, acc.Vals[i], acc.Idx[i], wantVals[i], wantIdx[i])
				}
			}
		}
	}
}

func TestRunningTopKMatchesRowTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := randMat(rng, 31, 27)
	for _, k := range []int{1, 3, 27, 50} {
		want := m.RowTopK(k)
		for _, ts := range tileShapes {
			acc := NewRunningTopK(m.Rows(), k)
			src := &DenseTileSource{M: m, TileRows: ts[0], TileCols: ts[1]}
			if err := src.StreamTiles(context.Background(), acc); err != nil {
				t.Fatal(err)
			}
			got := acc.Finalize()
			for i := range want {
				if len(got[i].Values) != len(want[i].Values) {
					t.Fatalf("k=%d tiles %v row %d: got %d candidates, want %d", k, ts, i, len(got[i].Values), len(want[i].Values))
				}
				for x := range want[i].Values {
					if got[i].Values[x] != want[i].Values[x] || got[i].Indices[x] != want[i].Indices[x] {
						t.Fatalf("k=%d tiles %v row %d pos %d: got (%v,%d) want (%v,%d)",
							k, ts, i, x, got[i].Values[x], got[i].Indices[x], want[i].Values[x], want[i].Indices[x])
					}
				}
			}
		}
	}
}

func TestRunningTopKMeansMatchesRowTopKMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randMat(rng, 29, 33)
	for _, k := range []int{1, 5, 40} {
		want := m.RowTopKMeans(k)
		acc := NewRunningTopK(m.Rows(), k)
		src := &DenseTileSource{M: m, TileRows: 6, TileCols: 10}
		if err := src.StreamTiles(context.Background(), acc); err != nil {
			t.Fatal(err)
		}
		got := acc.Means()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d row %d: streamed mean %v != dense mean %v", k, i, got[i], want[i])
			}
		}
	}
}

func TestColTopKAccMatchesColTopKMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := randMat(rng, 35, 22)
	for _, k := range []int{1, 4, 35} {
		want := m.ColTopKMeans(k)
		kc := k
		if kc > m.Rows() {
			kc = m.Rows()
		}
		acc := NewColTopKAcc(m.Cols(), kc)
		src := &DenseTileSource{M: m, TileRows: 8, TileCols: 5}
		if err := src.StreamTiles(context.Background(), acc); err != nil {
			t.Fatal(err)
		}
		got := acc.Means()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("k=%d col %d: streamed mean %v != dense mean %v", k, j, got[j], want[j])
			}
		}
	}
}

// paddedDense is the dense reference for PadCols: m with n score-filled
// columns appended.
func paddedDense(m *Dense, n int, score float64) *Dense {
	out := New(m.Rows(), m.Cols()+n)
	for i := 0; i < m.Rows(); i++ {
		dst := out.Row(i)
		copy(dst, m.Row(i))
		for j := m.Cols(); j < out.Cols(); j++ {
			dst[j] = score
		}
	}
	return out
}

func TestPadColsMatchesDensePadding(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := randMat(rng, 21, 13)
	const n, score = 9, 0.25
	want := paddedDense(m, n, score)
	src := PadCols(&DenseTileSource{M: m, TileRows: 4, TileCols: 6}, n, score)
	if r, c := src.Dims(); r != want.Rows() || c != want.Cols() {
		t.Fatalf("padded dims %d×%d, want %d×%d", r, c, want.Rows(), want.Cols())
	}

	wantVals, wantIdx := want.RowMax()
	acc := NewRunningArgmax(m.Rows())
	if err := src.StreamTiles(context.Background(), acc); err != nil {
		t.Fatal(err)
	}
	for i := range wantIdx {
		if acc.Idx[i] != wantIdx[i] || acc.Vals[i] != wantVals[i] {
			t.Fatalf("row %d: got (%v,%d) want (%v,%d)", i, acc.Vals[i], acc.Idx[i], wantVals[i], wantIdx[i])
		}
	}

	// Every padded cell must match the dense reference, in any tile order.
	got := New(want.Rows(), want.Cols())
	if err := src.StreamTiles(context.Background(), &tileCollector{dst: got}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("cell (%d,%d): got %v want %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestPadColsBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := randMat(rng, 12, 8)
	const n, score = 5, -1.5
	src := PadCols(&DenseTileSource{M: m}, n, score)
	rowIDs := []int{0, 7, 3}
	colIDs := []int{2, 8, 0, 12, 7} // mixes real (2,0,7) and dummy (8,12) columns
	got, err := src.Block(context.Background(), rowIDs, colIDs)
	if err != nil {
		t.Fatal(err)
	}
	want := paddedDense(m, n, score)
	for x, i := range rowIDs {
		for y, j := range colIDs {
			if got.At(x, y) != want.At(i, j) {
				t.Fatalf("block (%d,%d)=(%d,%d): got %v want %v", x, y, i, j, got.At(x, y), want.At(i, j))
			}
		}
	}
	if _, err := src.Block(context.Background(), rowIDs, []int{13}); err == nil {
		t.Fatal("out-of-range padded column accepted")
	}
}

func TestPadColsNoop(t *testing.T) {
	m := New(3, 3)
	src := &DenseTileSource{M: m}
	if PadCols(src, 0, 1) != TileSource(src) {
		t.Fatal("PadCols(0) should return the source unchanged")
	}
}

// tileCollector writes streamed tiles into a dense matrix, for cell-level
// equivalence checks.
type tileCollector struct{ dst *Dense }

func (c *tileCollector) ConsumeTile(rowOff, colOff int, tile *Dense) {
	for r := 0; r < tile.Rows(); r++ {
		copy(c.dst.Row(rowOff + r)[colOff:colOff+tile.Cols()], tile.Row(r))
	}
}
