package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Dense {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewShape(t *testing.T) {
	m := New(3, 5)
	if m.Rows() != 3 || m.Cols() != 5 {
		t.Fatalf("got %d×%d, want 3×5", m.Rows(), m.Cols())
	}
	if len(m.Data()) != 15 {
		t.Fatalf("backing slice length %d, want 15", len(m.Data()))
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestNewFromData(t *testing.T) {
	m, err := NewFromData(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := NewFromData(2, 2, []float64{1, 2, 3}); err == nil {
		t.Fatal("short data accepted")
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(4, 4)
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Fatalf("At(2,3) = %v, want 7.5", got)
	}
	if got := m.At(3, 2); got != 0 {
		t.Fatalf("At(3,2) = %v, want 0", got)
	}
}

func TestRowIsView(t *testing.T) {
	m := New(2, 3)
	row := m.Row(1)
	row[2] = 9
	if m.At(1, 2) != 9 {
		t.Fatal("Row did not return a view")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 2)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMatrix(rng, 37, 53) // deliberately not multiples of the block size
	tr := m.Transpose()
	if tr.Rows() != 53 || tr.Cols() != 37 {
		t.Fatalf("transpose shape %d×%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(rng, 1+rng.Intn(40), 1+rng.Intn(40))
		return Equal(m, m.Transpose().Transpose())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowMax(t *testing.T) {
	m, _ := NewFromData(2, 3, []float64{1, 5, 2, -1, -7, -2})
	vals, idx := m.RowMax()
	if vals[0] != 5 || idx[0] != 1 {
		t.Fatalf("row 0: got (%v,%d)", vals[0], idx[0])
	}
	if vals[1] != -1 || idx[1] != 0 {
		t.Fatalf("row 1: got (%v,%d)", vals[1], idx[1])
	}
}

func TestRowMaxEmptyRow(t *testing.T) {
	m := New(2, 0)
	vals, idx := m.RowMax()
	if !math.IsInf(vals[0], -1) || idx[0] != -1 {
		t.Fatalf("empty row: got (%v,%d)", vals[0], idx[0])
	}
}

func TestColMax(t *testing.T) {
	m, _ := NewFromData(3, 2, []float64{1, 9, 4, 2, 3, 8})
	vals, idx := m.ColMax()
	if vals[0] != 4 || idx[0] != 1 {
		t.Fatalf("col 0: got (%v,%d)", vals[0], idx[0])
	}
	if vals[1] != 9 || idx[1] != 0 {
		t.Fatalf("col 1: got (%v,%d)", vals[1], idx[1])
	}
}

func TestColMaxMatchesTransposedRowMax(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(rng, 1+rng.Intn(30), 1+rng.Intn(30))
		cv, ci := m.ColMax()
		rv, ri := m.Transpose().RowMax()
		for j := range cv {
			if cv[j] != rv[j] || ci[j] != ri[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestColMaxTiesAcrossStrips holds the row-parallel ColMax to one serial
// first-occurrence scan on columns whose maximum ties across the strip
// boundaries of 2, 3 and 4 workers (run it at -cpu 1,2,4): ties at rows
// 74/75, 99/100, 149/150 and 224/225, a tie of the first and last row, an
// all-equal column, the maximum in the last strip only, NaNs around a tie,
// and an all −Inf column (row −1).
func TestColMaxTiesAcrossStrips(t *testing.T) {
	const rows = 300
	ties := [][]int{{74, 75}, {99, 100}, {149, 150}, {224, 225}, {0, 299}, {299}, {75, 150, 225}}
	m := randMatrix(rand.New(rand.NewSource(9)), rows, len(ties)+3)
	for j, at := range ties {
		for _, i := range at {
			m.Set(i, j, 10)
		}
	}
	allEqual, nanTie, dead := len(ties), len(ties)+1, len(ties)+2
	for i := 0; i < rows; i++ {
		m.Set(i, allEqual, 0.5)
		m.Set(i, dead, math.Inf(-1))
		if i%2 == 0 {
			m.Set(i, nanTie, math.NaN())
		}
	}
	m.Set(151, nanTie, 10)
	m.Set(225, nanTie, 10)
	vals, idx := m.ColMax()
	for j := 0; j < m.Cols(); j++ {
		want, wi := math.Inf(-1), -1
		for i := 0; i < rows; i++ {
			if v := m.At(i, j); v > want {
				want, wi = v, i
			}
		}
		if vals[j] != want || idx[j] != wi {
			t.Errorf("column %d: ColMax = (%v, %d), serial scan (%v, %d)", j, vals[j], idx[j], want, wi)
		}
	}
	if len(vals) != m.Cols() || len(idx) != m.Cols() {
		t.Fatalf("ColMax returned %d values and %d indices for %d columns", len(vals), len(idx), m.Cols())
	}
}

func TestArgmax(t *testing.T) {
	m, _ := NewFromData(2, 2, []float64{0, 1, 3, 2})
	i, j := m.Argmax()
	if i != 1 || j != 0 {
		t.Fatalf("Argmax = (%d,%d), want (1,0)", i, j)
	}
	empty := New(0, 0)
	if i, j := empty.Argmax(); i != -1 || j != -1 {
		t.Fatalf("empty Argmax = (%d,%d)", i, j)
	}
}

func TestSumAndRowColSums(t *testing.T) {
	m, _ := NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	rs := m.RowSums()
	if rs[0] != 6 || rs[1] != 15 {
		t.Fatalf("RowSums = %v", rs)
	}
	cs := m.ColSums()
	if cs[0] != 5 || cs[1] != 7 || cs[2] != 9 {
		t.Fatalf("ColSums = %v", cs)
	}
}

func TestNormalizeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randMatrix(rng, 20, 11)
	m.Apply(math.Abs)
	m.SinkhornSweep(ones(m.Cols()), make([]float64, m.Cols()), 1e-12)
	for i, s := range m.RowSums() {
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestNormalizeCols(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMatrix(rng, 17, 9)
	m.Apply(math.Abs)
	next := make([]float64, m.Cols())
	m.SinkhornSweep(ones(m.Cols()), next, 1e-12)
	m.ScaleColsInPlace(next)
	for j, s := range m.ColSums() {
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("col %d sums to %v", j, s)
		}
	}
}

func TestNormalizeSkipsZeroRows(t *testing.T) {
	m := New(2, 3)
	m.Set(0, 0, 2)
	m.Set(0, 1, 2)
	next := make([]float64, 3)
	m.SinkhornSweep(ones(3), next, 1e-12)
	if m.At(1, 0) != 0 || m.At(1, 1) != 0 {
		t.Fatal("zero row was modified")
	}
	if next[2] != 1 {
		t.Fatalf("zero column's normalizer = %v, want 1", next[2])
	}
	if math.Abs(m.At(0, 0)-0.5) > 1e-12 {
		t.Fatalf("At(0,0) = %v", m.At(0, 0))
	}
}

func TestApplyAndScale(t *testing.T) {
	m, _ := NewFromData(1, 3, []float64{1, -2, 3})
	m.Apply(math.Abs).Scale(2)
	want := []float64{2, 4, 6}
	for j, w := range want {
		if m.At(0, j) != w {
			t.Fatalf("col %d = %v, want %v", j, m.At(0, j), w)
		}
	}
}

func TestSubVectors(t *testing.T) {
	m, _ := NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if err := m.SubRowVector([]float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 0 || m.At(1, 2) != 5 {
		t.Fatalf("after SubRowVector: %v", m.Data())
	}
	if err := m.SubColVector([]float64{0, 3}); err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 0 || m.At(0, 1) != 1 {
		t.Fatalf("after SubColVector: %v", m.Data())
	}
	if err := m.SubRowVector([]float64{1}); err == nil {
		t.Fatal("wrong-length row vector accepted")
	}
	if err := m.SubColVector([]float64{1}); err == nil {
		t.Fatal("wrong-length col vector accepted")
	}
}

func TestEqualApprox(t *testing.T) {
	a, _ := NewFromData(1, 2, []float64{1, 2})
	b, _ := NewFromData(1, 2, []float64{1.0001, 2})
	if !EqualApprox(a, b, 1e-3) {
		t.Fatal("within tolerance rejected")
	}
	if EqualApprox(a, b, 1e-6) {
		t.Fatal("outside tolerance accepted")
	}
	c := New(2, 1)
	if EqualApprox(a, c, 1) {
		t.Fatal("shape mismatch accepted")
	}
}

func TestSizeBytes(t *testing.T) {
	m := New(10, 10)
	if m.SizeBytes() != 800 {
		t.Fatalf("SizeBytes = %d", m.SizeBytes())
	}
}

func TestFill(t *testing.T) {
	m := New(3, 3)
	m.Fill(2.5)
	if rs := m.RowSums(); rs[0] != 7.5 || rs[2] != 7.5 {
		t.Fatalf("RowSums after Fill = %v", rs)
	}
}

func TestSelectRows(t *testing.T) {
	m, _ := NewFromData(3, 2, []float64{1, 2, 3, 4, 5, 6})
	s := m.SelectRows([]int{2, 0})
	if s.At(0, 0) != 5 || s.At(1, 1) != 2 {
		t.Fatalf("SelectRows = %v", s.Data())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index did not panic")
		}
	}()
	m.SelectRows([]int{3})
}
