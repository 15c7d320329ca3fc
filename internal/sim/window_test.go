package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"entmatcher/internal/core"
	"entmatcher/internal/matrix"
)

// slabOf serves m through a matrix.SlabTable over an in-memory file — a
// RowsReader that is not a *matrix.Dense, so the stream has to gather row
// windows. The slab sits at a non-zero offset, as a snapshot section does.
func slabOf(t *testing.T, m *matrix.Dense) *matrix.SlabTable {
	t.Helper()
	const pad = 24
	buf := make([]byte, pad+8*len(m.Data()))
	for i, v := range m.Data() {
		binary.LittleEndian.PutUint64(buf[pad+8*i:], math.Float64bits(v))
	}
	st, err := matrix.NewSlabTable(bytes.NewReader(buf), pad, m.Rows(), m.Cols())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestOneLoopOverEveryTable pins the one tile kernel over both kinds of
// table — a *matrix.Dense read in place and a non-Dense RowsReader read
// through gathered windows — for every metric, ragged tile shapes, and
// matrix.PadCols dummy columns that start inside a tile's column range, on a
// tile boundary, or are absent. Every streamed and every Block score, and
// the dense fill cut into ragged row strips, must equal sim.Matrix's bit for
// bit. Block IDs cover scattered, repeated and
// backward lists (gathered) and ascending runs of consecutive rows (read in
// place on a resident table).
func TestOneLoopOverEveryTable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// d = 20 puts cosine on the vector kernel where the CPU has one, with a
	// scalar tail.
	const rows, cols, d, score = 23, 17, 20, -0.25
	src, tgt := randEmb(rng, rows, d), randEmb(rng, cols, d)
	ctx := context.Background()
	for _, metric := range []Metric{Cosine, Euclidean, Manhattan} {
		dense, err := Matrix(src, tgt, metric)
		if err != nil {
			t.Fatal(err)
		}
		prepared, err := NewStream(src, tgt, metric)
		if err != nil {
			t.Fatal(err)
		}
		ps, pt := prepared.PreparedTables()
		want := func(i, j int) float64 {
			if j >= cols {
				return score
			}
			return dense.At(i, j)
		}
		// sim.Matrix fills all 23 rows as one strip; ragged strips of 1, 4
		// and 7 rows must write the same bits at their offsets.
		for _, strip := range []int{1, 4, 7} {
			st, err := NewStream(src, tgt, metric, WithTileShape(strip, 1))
			if err != nil {
				t.Fatal(err)
			}
			got, err := st.dense(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range got.Data() {
				if w := dense.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%v strips of %d rows: element %d = %v, one strip %v", metric, strip, i, g, w)
				}
			}
		}
		for _, tab := range []struct {
			name     string
			src, tgt matrix.RowsReader
		}{
			{"dense", ps, pt},
			{"slab", slabOf(t, ps), slabOf(t, pt)},
		} {
			// 17 real columns: at width 9 the dummies start inside the
			// second tile's column range; at width 17 on a tile boundary.
			for _, shape := range [][2]int{{7, 9}, {23, 17}, {5, 4}, {64, 64}} {
				for _, nd := range []int{0, 3, 12} {
					base, err := NewStreamOOC(tab.src, tab.tgt, metric, WithTileShape(shape[0], shape[1]))
					if err != nil {
						t.Fatal(err)
					}
					if got := base.OutOfCore(); got != (tab.name == "slab") {
						t.Fatalf("%s: OutOfCore() = %v", tab.name, got)
					}
					st := matrix.PadCols(base, nd, score)
					got := matrix.New(rows, cols+nd)
					if err := st.StreamTiles(ctx, &collector{dst: got}); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < rows; i++ {
						for j := 0; j < cols+nd; j++ {
							if g, w := got.At(i, j), want(i, j); math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("%v/%s tiles %v dummies %d (%d,%d): streamed %v != %v", metric, tab.name, shape, nd, i, j, g, w)
							}
						}
					}
					// Scattered row counts cover full groups of three and
					// each ragged tail; scattered columns repeat, run
					// backwards and reach the first and the last dummy.
					// The ascending runs — four rows, one row, the full
					// column range — are read in place on a resident table.
					scattered := []int{cols - 1, 0, 0, 3, cols + nd - 1, 9, cols + min(nd, 1) - 1}
					blocks := [][2][]int{
						{{4, 5, 6, 7}, {4, 5, 6, 7}},
						{{rows - 1}, ids(0, cols)},
						{ids(0, rows), ids(0, cols+nd)},
					}
					for _, nr := range []int{1, 2, 3, 4, 5, 7} {
						rowIDs := make([]int, nr)
						for x := range rowIDs {
							rowIDs[x] = (x*5 + 2) % rows
						}
						blocks = append(blocks, [2][]int{rowIDs, scattered})
					}
					for _, b := range blocks {
						rowIDs, colIDs := b[0], b[1]
						blk, err := st.Block(ctx, rowIDs, colIDs)
						if err != nil {
							t.Fatal(err)
						}
						for x, i := range rowIDs {
							for y, j := range colIDs {
								if g, w := blk.At(x, y), want(i, j); math.Float64bits(g) != math.Float64bits(w) {
									t.Fatalf("%v/%s block %v×%v dummies %d (%d,%d): %v != %v", metric, tab.name, rowIDs, colIDs, nd, i, j, g, w)
								}
							}
						}
					}
				}
			}
		}
	}
}

// ids returns the ascending run lo, lo+1, …, hi-1.
func ids(lo, hi int) []int {
	out := make([]int, hi-lo)
	for x := range out {
		out[x] = lo + x
	}
	return out
}

// TestNestedPadsMatchAddDummyColumns pads a stream twice with different
// dummy scores, the second matrix.PadCols wrapping the first, and holds
// every streamed score and every Block score to core.AddDummyColumns applied
// twice to the stream's own scores — over a resident and an out-of-core
// table, with tile widths that end the real columns mid-tile or on a tile
// boundary.
func TestNestedPadsMatchAddDummyColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const rows, cols, d = 19, 17, 12
	const n1, s1, n2, s2 = 2, 0.1, 3, 0.5
	src, tgt := randEmb(rng, rows, d), randEmb(rng, cols, d)
	ctx := context.Background()
	for _, metric := range []Metric{Cosine, Euclidean} {
		prepared, err := NewStream(src, tgt, metric)
		if err != nil {
			t.Fatal(err)
		}
		ps, pt := prepared.PreparedTables()
		for _, tab := range []struct {
			name     string
			src, tgt matrix.RowsReader
		}{
			{"dense", ps, pt},
			{"slab", slabOf(t, ps), slabOf(t, pt)},
		} {
			for _, shape := range [][2]int{{7, 9}, {4, 17}, {19, 18}, {5, 4}} {
				base, err := NewStreamOOC(tab.src, tab.tgt, metric, WithTileShape(shape[0], shape[1]))
				if err != nil {
					t.Fatal(err)
				}
				scores := matrix.New(rows, cols)
				if err := base.StreamTiles(ctx, &collector{dst: scores}); err != nil {
					t.Fatal(err)
				}
				want := core.AddDummyColumns(core.AddDummyColumns(scores, n1, s1), n2, s2)
				st := matrix.PadCols(matrix.PadCols(base, n1, s1), n2, s2)
				if r, c := st.Dims(); r != rows || c != want.Cols() {
					t.Fatalf("nested pad dims %d×%d, want %d×%d", r, c, rows, want.Cols())
				}
				got := matrix.New(rows, want.Cols())
				if err := st.StreamTiles(ctx, &collector{dst: got}); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < rows; i++ {
					for j := 0; j < want.Cols(); j++ {
						if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%v/%s tiles %v (%d,%d): streamed %v, AddDummyColumns twice %v", metric, tab.name, shape, i, j, g, w)
						}
					}
				}
				rowIDs := []int{0, 18, 3, 3, 7}
				colIDs := []int{cols + n1 + n2 - 1, 0, cols, cols + 1, cols + n1, cols - 1, 5, cols + n1 + 1}
				blk, err := st.Block(ctx, rowIDs, colIDs)
				if err != nil {
					t.Fatal(err)
				}
				for x, i := range rowIDs {
					for y, j := range colIDs {
						if g, w := blk.At(x, y), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%v/%s block (%d,%d): %v, AddDummyColumns twice %v", metric, tab.name, i, j, g, w)
						}
					}
				}
			}
		}
	}
}

// TestConstructorsShareValidation pins the one validation path: every
// constructor rejects nil, mismatched and empty tables and unknown metrics;
// only the out-of-core entry skips the finiteness scan; and the table's type
// alone decides whether a stream is resident.
func TestConstructorsShareValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	good, narrow, empty := randEmb(rng, 4, 8), randEmb(rng, 4, 5), matrix.New(0, 8)
	bad := randEmb(rng, 4, 8)
	bad.Set(2, 3, math.Inf(1))
	for name, mk := range map[string]func(src, tgt *matrix.Dense, m Metric) (*Stream, error){
		"NewStream":         func(s, g *matrix.Dense, m Metric) (*Stream, error) { return NewStream(s, g, m) },
		"NewStreamPrepared": func(s, g *matrix.Dense, m Metric) (*Stream, error) { return NewStreamPrepared(s, g, m) },
		"NewStreamOOC": func(s, g *matrix.Dense, m Metric) (*Stream, error) {
			if s == nil || g == nil {
				return NewStreamOOC(nil, nil, m)
			}
			return NewStreamOOC(slabOrEmpty(t, s), slabOrEmpty(t, g), m)
		},
	} {
		if _, err := mk(nil, good, Cosine); err == nil {
			t.Errorf("%s: nil table accepted", name)
		}
		if _, err := mk(good, narrow, Cosine); err == nil {
			t.Errorf("%s: dimension mismatch accepted", name)
		}
		if _, err := mk(good, empty, Cosine); !errors.Is(err, ErrEmptyEmbeddings) {
			t.Errorf("%s: empty target: %v", name, err)
		}
		if _, err := mk(good, good, Metric(99)); err == nil {
			t.Errorf("%s: unknown metric accepted", name)
		}
		_, err := mk(bad, good, Euclidean)
		if ooc := name == "NewStreamOOC"; ooc && err != nil {
			t.Errorf("%s: ran a finiteness scan: %v", name, err)
		} else if !ooc && !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: non-finite source: %v", name, err)
		}
		st, err := mk(good, good, Manhattan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ps, pt := st.PreparedTables()
		if resident := name != "NewStreamOOC"; st.OutOfCore() == resident || (ps != nil) != resident || (pt != nil) != resident {
			t.Errorf("%s: OutOfCore() = %v, PreparedTables() = %v, %v", name, st.OutOfCore(), ps != nil, pt != nil)
		}
		if vs, vt := st.TableViews(); vs == nil || vt == nil {
			t.Errorf("%s: TableViews() = %v, %v", name, vs, vt)
		}
	}
	// The out-of-core entry reads a *matrix.Dense view in place — still
	// without a finiteness scan.
	if st, err := NewStreamOOC(bad, good, Euclidean); err != nil {
		t.Errorf("NewStreamOOC over *Dense: %v", err)
	} else if st.OutOfCore() {
		t.Error("NewStreamOOC over *Dense reports OutOfCore()")
	}
}

// emptyReader is a zero-row table view (matrix.NewSlabTable refuses one).
type emptyReader struct{ cols int }

func (e emptyReader) Dims() (int, int) { return 0, e.cols }

func (e emptyReader) ReadRows([]float64, int, int) error { return matrix.ErrSlab }

func slabOrEmpty(t *testing.T, m *matrix.Dense) matrix.RowsReader {
	if m.Rows() == 0 {
		return emptyReader{m.Cols()}
	}
	return slabOf(t, m)
}
