package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

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

// TestOneLoopOverEveryTable pins the one tile loop and the one block body
// over both kinds of table — a *matrix.Dense read in place and a non-Dense
// RowsReader read through gathered windows — for every metric, ragged tile
// shapes, and dummy columns that split a tile, fill whole tiles, or are
// absent. Every streamed and every Block score must equal the dense
// reference bit-for-bit: sim.Matrix for the distance metrics, the per-pair
// Dot4 of the prepared rows for cosine (sim.Matrix sums cosine in a
// different order, so it is held to 1e-12 as in TestStreamMatchesMatrix).
func TestOneLoopOverEveryTable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const rows, cols, d, score = 23, 17, 12, -0.25
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
			switch {
			case j >= cols:
				return score
			case metric == Cosine:
				w := matrix.Dot4(ps.Row(i), pt.Row(j))
				if math.Abs(w-dense.At(i, j)) > 1e-12 {
					t.Fatalf("cosine (%d,%d): Dot4 %v vs sim.Matrix %v", i, j, w, dense.At(i, j))
				}
				return w
			}
			return dense.At(i, j)
		}
		for _, tab := range []struct {
			name     string
			src, tgt matrix.RowsReader
		}{
			{"dense", ps, pt},
			{"slab", slabOf(t, ps), slabOf(t, pt)},
		} {
			// 17 real columns: at width 9 the second tile is split by
			// dummies (3 of them stop inside it, 12 go on to fill one whole
			// tile and a ragged one); at width 17 the dummies start on a
			// tile boundary.
			for _, shape := range [][2]int{{7, 9}, {23, 17}, {5, 4}, {64, 64}} {
				for _, nd := range []int{0, 3, 12} {
					base, err := NewStreamOOC(tab.src, tab.tgt, metric, WithTileShape(shape[0], shape[1]))
					if err != nil {
						t.Fatal(err)
					}
					st := base.WithDummies(nd, score)
					if got := st.OutOfCore(); got != (tab.name == "slab") {
						t.Fatalf("%s: OutOfCore() = %v", tab.name, got)
					}
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
					// Row counts cover full groups of three and each ragged
					// tail; columns repeat, run backwards and reach the
					// first and the last dummy.
					for _, nr := range []int{1, 2, 3, 4, 5, 7} {
						rowIDs := make([]int, nr)
						for x := range rowIDs {
							rowIDs[x] = (x*5 + 2) % rows
						}
						colIDs := []int{cols - 1, 0, 0, 3, cols + nd - 1, 9, cols + min(nd, 1) - 1}
						blk, err := st.Block(ctx, rowIDs, colIDs)
						if err != nil {
							t.Fatal(err)
						}
						for x, i := range rowIDs {
							for y, j := range colIDs {
								if g, w := blk.At(x, y), want(i, j); math.Float64bits(g) != math.Float64bits(w) {
									t.Fatalf("%v/%s block rows=%d dummies %d (%d,%d): %v != %v", metric, tab.name, nr, nd, i, j, g, w)
								}
							}
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
