package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// tileValue draws a table entry: mostly normal values, with signed zeros,
// subnormals and tiny normals whose products are subnormal mixed in, so the
// kernels' FMAs and adds see every rounding regime a cosine table can hold.
func tileValue(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return math.Copysign(0, float64(rng.Intn(2))-0.5)
	case 1:
		return math.SmallestNonzeroFloat64 * float64(rng.Int63n(1<<20)-1<<19)
	case 2:
		return rng.NormFloat64() * 1e-160
	}
	return rng.NormFloat64()
}

func tileOperand(rng *rand.Rand, rows, d int) *Dense {
	m := New(rows, d)
	for i := range m.data {
		m.data[i] = tileValue(rng)
	}
	return m
}

// checkTileAgainstDot4 runs MulTransposedBlockInto over a NaN-filled dst and
// holds every element to the per-pair Dot4 with math.Float64bits equality, so
// an element the kernel skipped or wrote to the wrong place fails too. Then
// it runs the same a rows in the indexed walker's orientation — TileKernel
// with the rows as the group and each b row as the one target — and holds
// every score to Dot4(b row, a row), operands swapped.
func checkTileAgainstDot4(t *testing.T, dst, a, b *Dense, aOff, bOff int) {
	t.Helper()
	for i := range dst.data {
		dst.data[i] = math.NaN()
	}
	MulTransposedBlockInto(dst, a, b, aOff, bOff)
	for r := 0; r < dst.rows; r++ {
		for c := 0; c < dst.cols; c++ {
			want := Dot4(a.Row(aOff+r), b.Row(bOff+c))
			if got := dst.At(r, c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%dx%d tile, d=%d, offsets (%d,%d), at (%d,%d): %x, Dot4 %x",
					dst.rows, dst.cols, a.cols, aOff, bOff, r, c, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	d, out := a.cols, make([]float64, dst.rows)
	for c := 0; c < dst.cols; c++ {
		q := b.Row(bOff + c)
		for r := range out {
			out[r] = math.NaN()
		}
		TileKernel(out, a.data[aOff*d:(aOff+dst.rows)*d], q, dst.rows, d, 1)
		for r, got := range out {
			if want := Dot4(q, a.Row(aOff+r)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d rows against target %d, d=%d, offsets (%d,%d), row %d: %x, Dot4(target, row) %x",
					dst.rows, c, d, aOff, bOff, r, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestTileKernelTiersMatchDot4 holds every tile-kernel tier this host has —
// vl6, rows3 and the per-pair Go dispatch — to Dot4 bit for bit: 0–13 source
// rows (every remainder mod 6 and mod 3), dimensions on both sides of the
// 16-element vector step and of its multiples, 0 to 4 and 511 to 513 target
// rows (vl6's two-target steps with and without its one-target pass),
// nonzero offsets into both tables, and tables with signed zeros and
// subnormals; each in the tile orientation and in the walker's.
func TestTileKernelTiersMatchDot4(t *testing.T) {
	const aOff, bOff = 3, 5
	for _, tier := range tileTiers() {
		t.Run(tier, func(t *testing.T) {
			forceTileTier(t, tier)
			rng := rand.New(rand.NewSource(43))
			for _, d := range []int{1, 15, 16, 17, 20, 31, 32, 128, 130} {
				for _, cols := range []int{0, 1, 2, 3, 4, 511, 512, 513} {
					a := tileOperand(rng, aOff+13+2, d)
					b := tileOperand(rng, bOff+cols+1, d)
					for rows := 0; rows <= 13; rows++ {
						checkTileAgainstDot4(t, New(rows, cols), a, b, aOff, bOff)
					}
				}
			}
		})
	}
}

// fuzzTileEntry decodes one fuzz byte into a table entry: a few codes are
// signed zeros, subnormals and tiny normals, the top quarter thirds with full
// mantissas — so products and partial sums round, and a kernel that adds its
// lanes in another order gets other bits — and the rest a dyadic grid dense
// in ties, on which every sum is exact.
func fuzzTileEntry(x byte) float64 {
	if x >= 0xC0 {
		return float64(int(x)-0xE0) / 3
	}
	switch x {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64
	case 3:
		return -math.SmallestNonzeroFloat64 * 3
	case 4:
		return 0x1p-530
	}
	return float64(int8(x)) / 16
}

// FuzzTileKernel holds every tile-kernel tier to Dot4 on arbitrary tables:
// up to 13 source rows, dimensions up to 47, up to 40 target rows, offsets
// into both tables; in the tile orientation and in the walker's.
func FuzzTileKernel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 16, 200, 7}, byte(7), byte(17), byte(5), byte(2), byte(1))
	f.Add([]byte{255, 128, 1, 1, 0}, byte(13), byte(32), byte(40), byte(0), byte(3))
	f.Add([]byte{9, 0, 250, 3, 1, 77}, byte(11), byte(12), byte(2), byte(1), byte(0))
	f.Add([]byte{2, 4, 130, 1}, byte(12), byte(20), byte(3), byte(3), byte(2))
	f.Add([]byte{0, 5, 64, 192}, byte(6), byte(16), byte(4), byte(0), byte(1))
	f.Fuzz(func(t *testing.T, data []byte, rowsB, dB, colsB, aOffB, bOffB byte) {
		if len(data) == 0 {
			return
		}
		rows, d, cols := int(rowsB%14), int(dB%48), int(colsB%41)
		aOff, bOff := int(aOffB%4), int(bOffB%4)
		fill := func(m *Dense, salt int) {
			for i := range m.data {
				j := i + salt
				m.data[i] = fuzzTileEntry(data[j%len(data)] ^ byte(j/len(data)))
			}
		}
		a, b := New(aOff+rows, d), New(bOff+cols, d)
		fill(a, 0)
		fill(b, len(a.data))
		for _, tier := range tileTiers() {
			forceTileTier(t, tier)
			checkTileAgainstDot4(t, New(rows, cols), a, b, aOff, bOff)
		}
	})
}

// BenchmarkTileKernel times each tile-kernel tier in cache on one goroutine:
// 252 source rows against 512 target rows at d = 128 (1.5 MiB of operands),
// the shape of one streamed tile's row strip. It reports GFLOP/s, two flops
// per multiply-add, for comparison with the core's FMA peak (DESIGN §17).
//
//	go test -run '^$' -bench TileKernel ./internal/matrix
func BenchmarkTileKernel(b *testing.B) {
	const rows, n, d = 252, 512, 128
	rng := rand.New(rand.NewSource(47))
	// Normal values only: a subnormal operand costs a microcode assist.
	x, y := randMatrix(rng, rows, d), randMatrix(rng, n, d)
	out := make([]float64, rows*n)
	for _, tier := range tileTiers() {
		b.Run(tier, func(b *testing.B) {
			forceTileTier(b, tier)
			for i := 0; i < b.N; i++ {
				TileKernel(out, x.data, y.data, rows, d, n)
			}
			b.ReportMetric(2*rows*n*d*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
		})
	}
}

// TestDotBlockRowsMatchesDot4 pins the per-pair shim benchmark/probes.go
// times: 0 through 8 query rows, each element bit-identical to Dot4.
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
