package matrix

import (
	"math"
	"math/rand"
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

// refLAPStep is one LAPScan step as the two passes solveLAP made before the
// fusion: the relaxation over every unscanned column (or, for Init, the
// labels of a fresh search), then a separate pivot scan.
func refLAPStep(s *LAPScan, row []float64, u, d float64, pred int, init bool) int {
	if init {
		clear(s.Scanned)
		for c := range s.Dist {
			s.Dist[c], s.Pred[c] = -row[c]-u-s.V[c], 0
		}
	} else {
		for c := range s.Dist {
			if s.Scanned[c] {
				continue
			}
			if nd := d + (-row[c] - u - s.V[c]); nd < s.Dist[c] {
				s.Dist[c], s.Pred[c] = nd, pred
			}
		}
	}
	k, best := -1, math.Inf(1)
	for c, x := range s.Dist {
		if !s.Scanned[c] && x < best {
			k, best = c, x
		}
	}
	return k
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

// lapGrid is a tie-heavy value set with both zeros: labels, duals and scores
// drawn from it collide often, inside a lane and across lanes.
var lapGrid = []float64{-1, -0.5, math.Copysign(0, -1), 0, 0.25, 0.5, 1}

func randLAPScan(rng *rand.Rand, n int) *LAPScan {
	s := &LAPScan{V: make([]float64, n), Dist: make([]float64, n), Pred: make([]int, n), Scanned: make([]bool, n)}
	for c := 0; c < n; c++ {
		s.V[c] = lapGrid[rng.Intn(len(lapGrid))]
		s.Dist[c] = lapGrid[rng.Intn(len(lapGrid))]
		if rng.Intn(9) == 0 {
			s.Dist[c] = math.Inf(1)
		}
		s.Pred[c] = rng.Intn(n + 1)
		s.Scanned[c] = rng.Intn(3) == 0
	}
	return s
}

func cloneLAPScan(s *LAPScan) *LAPScan {
	return &LAPScan{V: slices.Clone(s.V), Dist: slices.Clone(s.Dist), Pred: slices.Clone(s.Pred), Scanned: slices.Clone(s.Scanned)}
}

// checkLAPStep runs one step on s and on a copy through the two-pass
// reference, and compares the pivots and the column state.
func checkLAPStep(t *testing.T, s *LAPScan, row []float64, u, d float64, pred int, init bool) {
	t.Helper()
	ref := cloneLAPScan(s)
	var got int
	if init {
		got = s.Init(row, u)
	} else {
		got = s.Relax(row, u, d, pred)
	}
	want := refLAPStep(ref, row, u, d, pred, init)
	if got != want || !sameBits(s.Dist, ref.Dist) || !slices.Equal(s.Pred, ref.Pred) || !slices.Equal(s.Scanned, ref.Scanned) {
		t.Fatalf("n=%d init=%v u=%v d=%v: pivot %d, reference %d (dist %v vs %v, pred %v vs %v)",
			len(s.Dist), init, u, d, got, want, s.Dist, ref.Dist, s.Pred, ref.Pred)
	}
}

// TestLAPScanTiersMatchReference holds Init and Relax, on every kernel tier,
// to the two-pass step on random tie-heavy states: every length mod 4, signed
// zeros everywhere, +Inf labels, all-scanned states (pivot −1).
func TestLAPScanTiersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, tier := range assignTiers() {
		t.Run(tier, func(t *testing.T) {
			forceAssignTier(t, tier)
			for n := 0; n <= 70; n++ {
				for rep := 0; rep < 20; rep++ {
					s := randLAPScan(rng, n)
					if rep == 0 {
						for c := range s.Scanned {
							s.Scanned[c] = true
						}
					}
					row := make([]float64, n)
					for c := range row {
						row[c] = lapGrid[rng.Intn(len(lapGrid))]
					}
					u, d := lapGrid[rng.Intn(len(lapGrid))], lapGrid[rng.Intn(len(lapGrid))]
					checkLAPStep(t, s, row, u, d, 1+rng.Intn(n+1), rep%5 == 1)
				}
			}
		})
	}
}

// lapSolve drives a complete Jonker–Volgenant solve as internal/core's
// solveLAP does, its steps on the LAPScan under test (ref false) or on the
// two-pass reference, and returns the assignment and both duals.
func lapSolve(s *Dense, ref bool) (p []int, u, v []float64) {
	n, m := s.Rows(), s.Cols()
	u, v, p = make([]float64, n+1), make([]float64, m+1), make([]int, m+1)
	pred, dist, scanned := make([]int, m+1), make([]float64, m+1), make([]bool, m+1)
	sc := &LAPScan{V: v[1:], Dist: dist[1:], Pred: pred[1:], Scanned: scanned[1:]}
	step := func(row []float64, u, d float64, pj int, init bool) int {
		if ref {
			return refLAPStep(sc, row, u, d, pj, init) + 1
		}
		if init {
			return sc.Init(row, u) + 1
		}
		return sc.Relax(row, u, d, pj) + 1
	}
	for i := 1; i <= n; i++ {
		p[0] = i
		var ready []int
		j1 := step(s.Row(i-1), u[i], 0, 0, true)
		jf := -1
		var df float64
		for j1 != 0 {
			if p[j1] == 0 {
				jf, df = j1, dist[j1]
				break
			}
			scanned[j1] = true
			ready = append(ready, j1)
			i2 := p[j1]
			j1 = step(s.Row(i2-1), u[i2], dist[j1], j1, false)
		}
		if jf < 0 {
			continue
		}
		u[i] += df
		for _, j := range ready {
			u[p[j]] += df - dist[j]
			v[j] -= df - dist[j]
		}
		for j := jf; j != 0; {
			p[j] = p[pred[j]]
			j = pred[j]
		}
	}
	return p, u, v
}

// TestLAPSolveTiersMatchReference runs whole assignments — square, wide,
// the transposed problem of a tall matrix, dummy-padded, tie-heavy with
// signed zeros — on every tier and requires the assignment and both duals
// bit-identical to the two-pass solver's.
func TestLAPSolveTiersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	grid := func(rows, cols int) *Dense {
		m := New(rows, cols)
		for i := range m.data {
			m.data[i] = lapGrid[rng.Intn(len(lapGrid))]
		}
		return m
	}
	pad := func(s *Dense, n int, score float64) *Dense {
		out := New(s.Rows(), s.Cols()+n)
		for i := 0; i < s.Rows(); i++ {
			copy(out.Row(i), s.Row(i))
			for j := s.Cols(); j < out.Cols(); j++ {
				out.Set(i, j, score)
			}
		}
		return out
	}
	cases := map[string]*Dense{
		"square-37x37":       randMatrix(rng, 37, 37),
		"ties-41x41":         grid(41, 41),
		"wide-23x42":         randMatrix(rng, 23, 42),
		"transposed-45x26":   randMatrix(rng, 45, 26).Transpose(),
		"padded-30x25+11":    pad(randMatrix(rng, 30, 25), 11, 0.1),
		"ties-padded-19x17+": pad(grid(19, 17), 5, 0),
	}
	for _, tier := range assignTiers() {
		t.Run(tier, func(t *testing.T) {
			forceAssignTier(t, tier)
			for name, s := range cases {
				gp, gu, gv := lapSolve(s, false)
				wp, wu, wv := lapSolve(s, true)
				if !slices.Equal(gp, wp) || !sameBits(gu, wu) || !sameBits(gv, wv) {
					t.Fatalf("%s: the fused solve diverged from the two-pass one", name)
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

// FuzzLAPStep holds Init and Relax on every tier to the two-pass step on
// arbitrary column states over the tie-heavy grid.
func FuzzLAPStep(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, byte(3), byte(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, byte(1), byte(1))
	f.Fuzz(func(t *testing.T, data []byte, ctl, pivot byte) {
		n := len(data) / 4
		at := func(b byte) float64 {
			if b%8 == 7 {
				return math.Inf(1)
			}
			return lapGrid[int(b%8)%len(lapGrid)]
		}
		s := &LAPScan{V: make([]float64, n), Dist: make([]float64, n), Pred: make([]int, n), Scanned: make([]bool, n)}
		row := make([]float64, n)
		for c := 0; c < n; c++ {
			b := data[4*c : 4*c+4]
			row[c] = lapGrid[int(b[0])%len(lapGrid)]
			s.V[c] = lapGrid[int(b[1])%len(lapGrid)]
			s.Dist[c] = at(b[2])
			s.Scanned[c] = b[3]&1 == 1
			s.Pred[c] = int(b[3] >> 1)
		}
		u, d := lapGrid[int(ctl>>1)%len(lapGrid)], lapGrid[int(pivot)%len(lapGrid)]
		for _, tier := range assignTiers() {
			forceAssignTier(t, tier)
			checkLAPStep(t, cloneLAPScan(s), row, u, d, int(pivot)+1, ctl&1 == 1)
		}
	})
}

// BenchmarkAssignKernels times one Sinkhorn iteration and one fused LAP step
// at the paper_dense width on every tier. The sweeps iterate Sinkhorn on a
// positive matrix, so no value drifts into the subnormals.
func BenchmarkAssignKernels(b *testing.B) {
	const n = 2100
	rng := rand.New(rand.NewSource(53))
	m := New(n, n)
	for i := range m.data {
		m.data[i] = 0.01 + rng.Float64()
	}
	s := randLAPScan(rng, n)
	row := m.Row(7)
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
		b.Run("lapstep/"+tier, func(b *testing.B) {
			forceAssignTier(b, tier)
			for i := 0; i < b.N; i++ {
				s.Relax(row, 0.5, 0.25, 3)
			}
		})
	}
}
