//go:build amd64 && !purego

package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// TestDotBlock3AVX2MatchesReference pins every output of the blocked kernel
// to the per-pair contract on lengths around each boundary: out[j] must be
// bit-identical both to dotAVX2(aj, b) (the shipping per-pair kernel) and to
// dotFMARef(aj, b) (the pure-Go math.FMA mirror of its summation order).
// This is the bit-identity argument of the blocked kernel made executable —
// blocking amortizes loads, never a rounding step.
func TestDotBlock3AVX2MatchesReference(t *testing.T) {
	if !hasFastDot {
		t.Skip("no AVX2+FMA on this CPU")
	}
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 3, 15, 16, 17, 31, 32, 33, 64, 100, 128, 257} {
		for rep := 0; rep < 8; rep++ {
			rows := make([][]float64, 3)
			for j := range rows {
				rows[j] = make([]float64, n)
				for i := range rows[j] {
					rows[j][i] = rng.NormFloat64()
				}
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			var out [3]float64
			dotBlock3AVX2(rows[0], rows[1], rows[2], b, &out)
			for j := 0; j < 3; j++ {
				asm := dotAVX2(rows[j], b)
				ref := dotFMARef(rows[j], b)
				if out[j] != asm && !(math.IsNaN(out[j]) && math.IsNaN(asm)) {
					t.Fatalf("n=%d pair=%d: dotBlock3AVX2 = %x, dotAVX2 = %x", n, j, out[j], asm)
				}
				if out[j] != ref && !(math.IsNaN(out[j]) && math.IsNaN(ref)) {
					t.Fatalf("n=%d pair=%d: dotBlock3AVX2 = %x, dotFMARef = %x", n, j, out[j], ref)
				}
			}
		}
	}
}

// TestDotBlock3AVX2SharedRow exercises aliasing: the same slice passed as
// all three source rows (as grouped scans may do on degenerate inputs) must
// still produce three identical, correct values.
func TestDotBlock3AVX2SharedRow(t *testing.T) {
	if !hasFastDot {
		t.Skip("no AVX2+FMA on this CPU")
	}
	rng := rand.New(rand.NewSource(23))
	a := make([]float64, 97)
	b := make([]float64, 97)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	var out [3]float64
	dotBlock3AVX2(a, a, a, b, &out)
	want := dotAVX2(a, b)
	for j, got := range out {
		if got != want {
			t.Fatalf("pair %d: aliased dotBlock3AVX2 = %x, dotAVX2 = %x", j, got, want)
		}
	}
}

func BenchmarkDotBlockKernels(b *testing.B) {
	// Single-row vs blocked throughput on a slab scan shape: 3 source rows
	// against nTargets target rows of dimension d, the inner loop of the
	// indexed walker's full groups. The blocked variant touches each target
	// row once for all three sources.
	const d, nTargets = 128, 512
	rng := rand.New(rand.NewSource(29))
	src := make([][]float64, 3)
	for j := range src {
		src[j] = make([]float64, d)
		for i := range src[j] {
			src[j][i] = rng.NormFloat64()
		}
	}
	tgt := make([]float64, nTargets*d)
	for i := range tgt {
		tgt[i] = rng.NormFloat64()
	}
	b.Run("per-pair", func(b *testing.B) {
		b.SetBytes(int64(3 * nTargets * d * 8))
		for i := 0; i < b.N; i++ {
			for c := 0; c < nTargets; c++ {
				row := tgt[c*d : (c+1)*d]
				sinkDot = dot(src[0], row) + dot(src[1], row) + dot(src[2], row)
			}
		}
	})
	b.Run("blocked", func(b *testing.B) {
		b.SetBytes(int64(3 * nTargets * d * 8))
		var out [3]float64
		for i := 0; i < b.N; i++ {
			for c := 0; c < nTargets; c++ {
				dotBlock3(src[0], src[1], src[2], tgt[c*d:(c+1)*d], &out)
			}
		}
		sinkDot = out[0]
	})
}
