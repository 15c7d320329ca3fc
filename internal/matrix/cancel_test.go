package matrix

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestMulContextCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randMatrix(rng, 40, 30), randMatrix(rng, 30, 20)
	cc, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := MulContext(cc, a, b)
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestMulContextMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randMatrix(rng, 13, 7), randMatrix(rng, 7, 9)
	want, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MulContext(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			if math.Abs(want.At(i, j)-got.At(i, j)) > 1e-12 {
				t.Fatalf("mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMapContext(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randMatrix(rng, 10, 10)
	got, err := m.MapContext(context.Background(), func(v float64) float64 { return v + 1 })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Data() {
		if got.Data()[i] != v+1 {
			t.Fatalf("element %d = %v, want %v", i, got.Data()[i], v+1)
		}
	}
	cc, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := m.MapContext(cc, func(v float64) float64 { return v }); out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("out=%v err=%v, want nil and context.Canceled", out, err)
	}
}

func TestFindNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randMatrix(rng, 5, 4)
	if _, _, ok := m.FindNonFinite(); ok {
		t.Fatal("finite matrix flagged")
	}
	m.Set(3, 2, math.NaN())
	i, j, ok := m.FindNonFinite()
	if !ok || i != 3 || j != 2 {
		t.Fatalf("NaN at (3,2) reported as (%d,%d,%v)", i, j, ok)
	}
	m.Set(3, 2, math.Inf(1))
	if _, _, ok := m.FindNonFinite(); !ok {
		t.Fatal("+Inf not flagged")
	}
	empty := New(0, 0)
	if _, _, ok := empty.FindNonFinite(); ok {
		t.Fatal("empty matrix flagged")
	}

	// At a size every worker gets rows of (257 columns: a scalar tail of
	// one after the four-wide sums), the answer is still the first offender
	// in row-major order, whichever worker finds which.
	const rows, cols = 300, 257
	for _, c := range []struct {
		name string
		bad  [][3]float64 // row, col, value
		i, j int
	}{
		{"finite", nil, -1, -1},
		{"two workers", [][3]float64{{250, 3, math.NaN()}, {20, 200, math.Inf(1)}}, 20, 200},
		{"same row", [][3]float64{{149, 256, math.NaN()}, {149, 7, math.Inf(-1)}, {150, 0, math.NaN()}}, 149, 7},
		{"-Inf alone", [][3]float64{{299, 128, math.Inf(-1)}}, 299, 128},
		{"NaN in the tail", [][3]float64{{0, 256, math.NaN()}}, 0, 256},
		{"first and last", [][3]float64{{299, 256, math.NaN()}, {0, 0, math.Inf(1)}}, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := randMatrix(rng, rows, cols)
			for _, b := range c.bad {
				m.Set(int(b[0]), int(b[1]), b[2])
			}
			i, j, ok := m.FindNonFinite()
			if want := c.i >= 0; ok != want || (ok && (i != c.i || j != c.j)) {
				t.Fatalf("FindNonFinite = (%d,%d,%v), want (%d,%d,%v)", i, j, ok, c.i, c.j, want)
			}
		})
	}
}
