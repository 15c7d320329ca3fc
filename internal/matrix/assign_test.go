package matrix

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// refSweep is SinkhornSweep as three serial passes — scale the columns,
// normalize the rows, sum the columns — the arithmetic the fused sweep, its
// strips and its kernels must reproduce bit for bit.
func refSweep(m *Dense, scale []float64, eps float64) []float64 {
	for i := 0; i < m.Rows(); i++ {
		r := m.Row(i)
		var s float64
		for j := range r {
			t := float64(r[j] * scale[j])
			r[j] = t
			s += t
		}
		if math.Abs(s) < eps {
			continue
		}
		inv := 1 / s
		for j := range r {
			r[j] *= inv
		}
	}
	next := make([]float64, m.Cols())
	for i := 0; i < m.Rows(); i++ {
		for j, v := range m.Row(i) {
			next[j] += v
		}
	}
	for j, s := range next {
		if math.Abs(s) < eps {
			next[j] = 1
		} else {
			next[j] = 1 / s
		}
	}
	return next
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for j := range v {
		v[j] = 1
	}
	return v
}

// sweepInput is a Sinkhorn-like matrix with the features the sweep's guards
// and lanes must survive: a dead row (sum 0, below any eps), a dead column,
// signed zeros, rows of both signs (their sums may cancel under eps), a row
// of subnormals and a row of quarters (an exact sum: it meets eps = 1 at four
// columns, where only the strict < leaves it unguarded).
func sweepInput(rng *rand.Rand, rows, cols int) (*Dense, []float64) {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = rng.Float64()
	}
	if rows > 2 {
		clear(m.Row(1))
		for j := range m.Row(2) {
			m.Row(2)[j] = -rng.Float64()
		}
	}
	if rows > 3 {
		for j := range m.Row(3) {
			m.Row(3)[j] = float64(j+1) * 1e-310
		}
	}
	if rows > 4 {
		for j := range m.Row(4) {
			m.Row(4)[j] = 0.25
		}
	}
	if cols > 2 {
		for i := 0; i < rows; i++ {
			m.Set(i, cols-2, 0)
		}
	}
	if rows > 0 {
		m.Set(0, 0, math.Copysign(0, -1))
		m.Set(rows-1, cols-1, math.Copysign(0, -1))
	}
	scale := make([]float64, cols)
	for j := range scale {
		scale[j] = 0.5 + rng.Float64()
	}
	return m, scale
}

// sweepShapes covers rows mod 8 and cols mod 4 in one strip, and the
// multi-strip hand-off: at 1027 columns a strip is 24 rows, from 4097 up 8.
func sweepShapes() [][2]int {
	var shapes [][2]int
	for rows := 0; rows <= 17; rows++ {
		for _, cols := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 33} {
			shapes = append(shapes, [2]int{rows, cols})
		}
	}
	return append(shapes, [2]int{50, 1027}, [2]int{73, 1027}, [2]int{8, 4097}, [2]int{23, 4099}, [2]int{45, 4100})
}

// TestSinkhornSweepTiersMatchReference holds the fused sweep, on every kernel
// tier of the host, to the three serial passes: the matrix and the next
// column normalizers bit for bit, with and without a pending scale, at the
// Sinkhorn eps, at eps large enough to skip rows that are not zero, and at
// eps 0 (a zero sum divides: 0·Inf is NaN on both sides).
func TestSinkhornSweepTiersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tier := range assignTiers() {
		t.Run(tier, func(t *testing.T) {
			forceAssignTier(t, tier)
			for _, sh := range sweepShapes() {
				m, scale := sweepInput(rng, sh[0], sh[1])
				for _, eps := range []float64{1e-300, 0.3, 1, 0} {
					for _, sc := range [][]float64{ones(sh[1]), scale} {
						got, want := m.Clone(), m.Clone()
						next := make([]float64, sh[1])
						got.SinkhornSweep(sc, next, eps)
						wantNext := refSweep(want, sc, eps)
						if !got.EqualBits(want) || !sameBits(next, wantNext) {
							t.Fatalf("%d×%d eps=%g scale=%v: sweep diverged from the serial passes", sh[0], sh[1], eps, sc[0])
						}
					}
				}
			}
		})
	}
}

// FuzzSinkhornSweep holds the sweep on every tier to the three serial passes
// on arbitrary small matrices: dyadic values of both signs and zeros of both
// signs, any column scale, and an eps that may skip any row.
func FuzzSinkhornSweep(f *testing.F) {
	f.Add([]byte{0, 8, 16, 8, 8, 0x81, 32, 32, 1, 9, 200, 3}, byte(5), byte(0))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 7, 7, 7, 7, 0, 0}, byte(2), byte(3))
	f.Fuzz(func(t *testing.T, data []byte, colsB, epsB byte) {
		cols := int(colsB%13) + 1
		if len(data) < cols {
			return
		}
		val := func(b byte) float64 { return math.Copysign(float64(b&0x7f)/16, float64(0x40-int(b&0x80))) }
		scale := make([]float64, cols)
		for j := range scale {
			scale[j] = float64(data[j]&0x3f+1) / 32
		}
		rows := min((len(data)-cols)/cols, 40)
		m := New(rows, cols)
		for i := range m.data {
			m.data[i] = val(data[cols+i])
		}
		eps := []float64{1e-300, 0.5, 2, 0}[epsB%4]
		for _, tier := range assignTiers() {
			forceAssignTier(t, tier)
			for _, sc := range [][]float64{ones(cols), scale} {
				got, want := m.Clone(), m.Clone()
				next := make([]float64, cols)
				got.SinkhornSweep(sc, next, eps)
				wantNext := refSweep(want, sc, eps)
				if !got.EqualBits(want) || !sameBits(next, wantNext) {
					t.Fatalf("%s %d×%d eps=%g scale=%v: sweep diverged from the serial passes", tier, rows, cols, eps, sc)
				}
			}
		}
	})
}

// refGraphSweep is CandGraph.SinkhornSweep as three serial passes — scale the
// edges, normalize the rows, sum the columns in row order.
func refGraphSweep(g *CandGraph, scale []float64, eps float64) []float64 {
	for i := 0; i < g.Rows(); i++ {
		c, v := g.Row(i)
		var s float64
		for x, j := range c {
			t := float64(v[x] * scale[j])
			v[x] = t
			s += t
		}
		if math.Abs(s) < eps {
			continue
		}
		inv := 1 / s
		for x := range v {
			v[x] *= inv
		}
	}
	next := make([]float64, g.Cols())
	for i := 0; i < g.Rows(); i++ {
		c, v := g.Row(i)
		for x, j := range c {
			next[j] += v[x]
		}
	}
	for j, s := range next {
		if math.Abs(s) < eps {
			next[j] = 1
		} else {
			next[j] = 1 / s
		}
	}
	return next
}

// sweepGraph is sweepInput as a candidate graph in ascending column order,
// with ragged rows: every seventh row empty, every fifth one to three
// edges, the rest a random subset of the columns. Rows 0–4 keep sweepInput's
// features (a dead row, a negative row, subnormals; the row of quarters keeps
// four edges, an exact sum of 1), and so does the dead column.
func sweepGraph(rng *rand.Rand, rows, cols int) (*CandGraph, []float64) {
	m, scale := sweepInput(rng, rows, cols)
	g := &CandGraph{rows: rows, cols: cols, rowPtr: make([]int64, rows+1)}
	for i := 0; i < rows; i++ {
		keep := 0.5 + 0.5*rng.Float64()
		switch {
		case i == 4:
			keep = 4 / float64(cols)
		case i%7 == 6:
			keep = 0
		case i%5 == 2:
			keep = float64(1+rng.Intn(3)) / float64(cols)
		}
		for j, v := range m.Row(i) {
			if rng.Float64() < keep || (i == 4 && j < 4) {
				g.colIdx = append(g.colIdx, int32(j))
				g.score = append(g.score, v)
			}
		}
		g.rowPtr[i+1] = int64(len(g.colIdx))
	}
	return g, scale
}

// clone copies the graph's storage.
func (g *CandGraph) clone() *CandGraph {
	return &CandGraph{rows: g.rows, cols: g.cols, rowPtr: slices.Clone(g.rowPtr), colIdx: slices.Clone(g.colIdx), score: slices.Clone(g.score)}
}

// TestCandGraphSinkhornSweepMatchesReference holds the graph sweep to the
// three serial passes — the edges and the next column normalizers bit for
// bit — at GOMAXPROCS 1, 2, 3 and 8: single-strip graphs of every small
// shape, and graphs of three to four strips whose row counts are 1, 2, 3 and
// 0 mod 4; ragged and empty rows, eps-guarded rows and columns, signed zeros
// and subnormals; the same eps and scales as the dense sweep's test.
func TestCandGraphSinkhornSweepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var shapes [][2]int
	for rows := 0; rows <= 17; rows++ {
		for _, cols := range []int{1, 2, 3, 5, 9, 33} {
			shapes = append(shapes, [2]int{rows, cols})
		}
	}
	shapes = append(shapes, [2]int{145, 2000}, [2]int{146, 2000}, [2]int{147, 2000}, [2]int{148, 2000})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, sh := range shapes {
			g, scale := sweepGraph(rng, sh[0], sh[1])
			if stripRows := max(1, sweepStripBytes/(12*max(1, g.NNZ()/max(1, sh[0])))); sh[0] > 100 && sh[0] < 3*stripRows {
				t.Fatalf("%d×%d: %d rows of %d edges are fewer than three strips of %d rows", sh[0], sh[1], sh[0], g.NNZ(), stripRows)
			}
			for _, eps := range []float64{1e-300, 0.3, 1, 0} {
				for _, sc := range [][]float64{ones(sh[1]), scale} {
					got, want := g.clone(), g.clone()
					next := make([]float64, sh[1])
					got.SinkhornSweep(sc, next, eps)
					wantNext := refGraphSweep(want, sc, eps)
					if !sameBits(got.score, want.score) || !sameBits(next, wantNext) {
						t.Fatalf("GOMAXPROCS=%d %d×%d eps=%g scale=%v: graph sweep diverged from the serial passes", procs, sh[0], sh[1], eps, sc[0])
					}
				}
			}
		}
	}
}

// BenchmarkAssignKernels times one Sinkhorn iteration at the paper_dense width
// on every tier. The sweeps iterate Sinkhorn on a
// positive matrix, so no value drifts into the subnormals.
func BenchmarkAssignKernels(b *testing.B) {
	const n = 2100
	rng := rand.New(rand.NewSource(53))
	m := New(n, n)
	for i := range m.data {
		m.data[i] = 0.01 + rng.Float64()
	}
	for _, tier := range assignTiers() {
		b.Run("sweep/"+tier, func(b *testing.B) {
			forceAssignTier(b, tier)
			scale, next := make([]float64, n), make([]float64, n)
			m.SinkhornSweep(ones(n), scale, 1e-300)
			for i := 0; i < b.N; i++ {
				m.SinkhornSweep(scale, next, 1e-300)
				scale, next = next, scale
			}
		})
	}
}

// BenchmarkCandGraphSweep times one Sinkhorn iteration of the graph sweep at
// the sparse_exact shape: 5 600 rows of 64 candidates among 5 600 columns.
func BenchmarkCandGraphSweep(b *testing.B) {
	const n, c = 5600, 64
	rng := rand.New(rand.NewSource(59))
	g := &CandGraph{rows: n, cols: n, rowPtr: make([]int64, n+1)}
	for i := 0; i < n; i++ {
		cols := rng.Perm(n)[:c]
		slices.Sort(cols)
		for _, j := range cols {
			g.colIdx = append(g.colIdx, int32(j))
			g.score = append(g.score, 0.01+rng.Float64())
		}
		g.rowPtr[i+1] = int64(len(g.colIdx))
	}
	scale, next := make([]float64, n), make([]float64, n)
	g.SinkhornSweep(ones(n), scale, 1e-300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SinkhornSweep(scale, next, 1e-300)
		scale, next = next, scale
	}
}
