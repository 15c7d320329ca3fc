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
}
