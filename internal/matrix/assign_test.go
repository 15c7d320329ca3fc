package matrix

import (
	"math"
	"math/rand"
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
