package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// dotLengths straddle every boundary of the dispatch and of dotFMA's
// 16-element step: empty, sub-step, exact steps and ragged tails.
var dotLengths = []int{0, 1, 3, 15, 16, 17, 31, 32, 33, 64, 100, 128, 257}

func randVecPair(rng *rand.Rand, n int) (a, b []float64) {
	a, b = make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	return a, b
}

// TestDotDispatch pins the arithmetic behind every cosine score on every
// build: Dot4 is dotUnroll4 below one 16-element step and dotFMA from one
// step on, bit for bit, whichever kernel the machine runs.
func TestDotDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range dotLengths {
		for rep := 0; rep < 8; rep++ {
			a, b := randVecPair(rng, n)
			want, kernel := dotUnroll4(a, b), "dotUnroll4"
			if n >= 16 {
				want, kernel = dotFMA(a, b), "dotFMA"
			}
			if got := Dot4(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: Dot4 = %x, %s = %x", n, got, kernel, want)
			}
		}
	}
}

// TestDotAVX2MatchesReference holds the assembly kernel to dotFMA, the
// production Go kernel of the same order, bit for bit.
func TestDotAVX2MatchesReference(t *testing.T) {
	if !hasFastDot {
		t.Skip("no AVX2+FMA kernel in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range dotLengths {
		for rep := 0; rep < 8; rep++ {
			a, b := randVecPair(rng, n)
			if got, want := dotAVX2(a, b), dotFMA(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: dotAVX2 = %x, dotFMA = %x", n, got, want)
			}
		}
	}
}

func BenchmarkDotKernels(b *testing.B) {
	const d = 128
	x, y := randVecPair(rand.New(rand.NewSource(11)), d)
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkDot = dotUnroll4(x, y)
		}
	})
	b.Run("fma", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkDot = dotFMA(x, y)
		}
	})
	if hasFastDot {
		b.Run("avx2", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkDot = dotAVX2(x, y)
			}
		})
	}
}

var sinkDot float64
