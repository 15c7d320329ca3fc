package matrix

import (
	"math/rand"
	"testing"
)

// TestDotBlock3MatchesDot4 pins the portable contract on every platform
// (including the purego leg): DotBlock3's outputs are bit-identical to three
// independent Dot4 calls, across the same boundary lengths the per-pair
// kernel is tested on.
func TestDotBlock3MatchesDot4(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 3, 15, 16, 17, 31, 32, 33, 64, 100, 128, 257} {
		for rep := 0; rep < 4; rep++ {
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
			DotBlock3(rows[0], rows[1], rows[2], b, &out)
			for j := 0; j < 3; j++ {
				if want := Dot4(rows[j], b); out[j] != want {
					t.Fatalf("n=%d pair=%d: DotBlock3 = %x, Dot4 = %x", n, j, out[j], want)
				}
			}
		}
	}
}

// TestDotBlockRowsMatchesDot4 covers the ragged-group driver: every group
// size from 0 through 8 query rows, each element bit-identical to Dot4.
func TestDotBlockRowsMatchesDot4(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const d = 64
	b := make([]float64, d)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for nq := 0; nq <= 8; nq++ {
		rows := make([][]float64, nq)
		for j := range rows {
			rows[j] = make([]float64, d)
			for i := range rows[j] {
				rows[j][i] = rng.NormFloat64()
			}
		}
		out := make([]float64, nq)
		DotBlockRows(rows, b, out)
		for j := range rows {
			if want := Dot4(rows[j], b); out[j] != want {
				t.Fatalf("nq=%d pair=%d: DotBlockRows = %x, Dot4 = %x", nq, j, out[j], want)
			}
		}
	}
}
