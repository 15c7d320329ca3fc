package quant

import (
	"fmt"
	"math/rand"
	"testing"
)

// i8Fills are the operand contents every kernel tier is pinned on: random
// codes over the full int8 range (-128 included, though Encode never emits
// it), and the all-±127 extremes that maximize every partial sum.
var i8Fills = map[string]func(rng *rand.Rand, a, b []int8){
	"random": func(rng *rand.Rand, a, b []int8) {
		for i := range a {
			a[i] = int8(rng.Intn(256) - 128)
		}
		for i := range b {
			b[i] = int8(rng.Intn(256) - 128)
		}
	},
	"max-magnitude": func(_ *rand.Rand, a, b []int8) {
		for i := range a {
			a[i] = 127
		}
		for i := range b {
			b[i] = 127
		}
	},
	"opposed": func(_ *rand.Rand, a, b []int8) {
		for i := range a {
			a[i] = 127
		}
		for i := range b {
			b[i] = -127
		}
	},
	"alternating": func(_ *rand.Rand, a, b []int8) {
		for i := range a {
			a[i] = int8(127 - 254*(i%2))
		}
		for i := range b {
			b[i] = int8(-127 + 254*(i%2))
		}
	},
}

// TestDotI8MatchesScalar pins DotI8 on every tier the host runs against the
// scalar reference, on lengths around every vector-width boundary. Integer
// arithmetic is exact, so the requirement is EXACT equality — stronger than
// the float kernel's ulp tolerance.
func TestDotI8MatchesScalar(t *testing.T) {
	lens := []int{0, 1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 96, 100, 127, 128, 129, 300, 1024, 65536}
	for _, tier := range hostTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := rand.New(rand.NewSource(42))
			for name, fill := range i8Fills {
				for _, n := range lens {
					a, b := make([]int8, n), make([]int8, n)
					fill(rng, a, b)
					if got, want := DotI8(a, b), dotI8Scalar(a, b); got != want {
						t.Fatalf("%s len=%d: DotI8=%d scalar=%d", name, n, got, want)
					}
				}
			}
		})
	}
}

// TestDotI8RowsMatchScalar pins the two rows kernels — the scan's entry to
// every tier — against the scalar reference: every dimensionality 1…257
// (each tail length of the 32- and 64-byte steps, with and without whole
// steps before it), run lengths on both sides of the four-row tile (0 rows,
// 1 row, short last tiles), and operands starting at every byte alignment.
func TestDotI8RowsMatchScalar(t *testing.T) {
	const maxD, maxN = 257, 9
	for _, tier := range hostTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := rand.New(rand.NewSource(44))
			qbuf, cbuf := make([]int8, 4*maxD+8), make([]int8, maxN*maxD+8)
			obuf := make([]int32, 4*(maxN+2))
			for name, fill := range i8Fills {
				for d := 1; d <= maxD; d++ {
					off := d % 4 // unaligned starts, varied with d
					n := []int{0, 1, 2, 3, 4, 5, 7, 8, 9}[d%9]
					fill(rng, qbuf, cbuf)
					var q [4][]int8
					var o [4][]int32
					for j := range q {
						q[j] = qbuf[off+j*d : off+(j+1)*d]
						// One guard word either side of each output run.
						o[j] = obuf[j*(maxN+2)+1 : j*(maxN+2)+1+n]
					}
					codes := cbuf[off+1 : off+1+n*d]
					check := func(kind string) {
						t.Helper()
						for j := range o {
							for i, got := range o[j] {
								if want := dotI8Scalar(q[j], codes[i*d:(i+1)*d]); got != want {
									t.Fatalf("%s %s d=%d n=%d: query %d row %d = %d, scalar = %d", name, kind, d, n, j, i, got, want)
								}
							}
						}
						for x := 0; x < len(obuf); x += maxN + 2 {
							for _, g := range []int{x, x + 1 + n} {
								if obuf[g] != guard {
									t.Fatalf("%s %s d=%d n=%d: wrote outside the run at %d", name, kind, d, n, g)
								}
							}
						}
					}
					for x := range obuf {
						obuf[x] = guard
					}
					dotI8Rows4(q[0], q[1], q[2], q[3], codes, o[0], o[1], o[2], o[3])
					check("rows4")
					for x := range obuf {
						obuf[x] = guard
					}
					for j := range q {
						dotI8Rows1(q[j], codes, o[j])
					}
					check("rows1")
				}
			}
		})
	}
}

// guard is a value no int8 dot of the tested sizes produces.
const guard = int32(-1 << 31)

// TestDotI8Block4MatchesScalar pins the exported one-row forms to the scalar
// contract on every tier: DotI8Block4 (the kernel probe of the benchmark
// harness calls it) is the rows kernel at n = 1.
func TestDotI8Block4MatchesScalar(t *testing.T) {
	for _, tier := range hostTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := rand.New(rand.NewSource(43))
			for name, fill := range i8Fills {
				for _, n := range []int{0, 1, 7, 31, 32, 33, 63, 64, 65, 96, 100, 128, 257} {
					qs, b := make([]int8, 4*n), make([]int8, n)
					fill(rng, qs, b)
					var out [4]int32
					DotI8Block4(qs[:n], qs[n:2*n], qs[2*n:3*n], qs[3*n:], b, &out)
					for j := 0; j < 4; j++ {
						if want := dotI8Scalar(qs[j*n:(j+1)*n], b); out[j] != want {
							t.Fatalf("%s n=%d query=%d: DotI8Block4 = %d, scalar = %d", name, n, j, out[j], want)
						}
					}
				}
			}
		})
	}
}

// TestDotI8NoOverflowAtMaxDim exercises the documented accumulator bound on
// every tier and both kernels: 2^16 products of ±127·127 must sum without
// wrapping, and so must the widest case the VNNI tier's bias creates
// (corpus 127 → 255 unsigned, against a query of -128: the biased sum and
// the 128·Σq correction both reach 2^31 − 2^23 in magnitude before they
// cancel).
func TestDotI8NoOverflowAtMaxDim(t *testing.T) {
	want := int32(127 * 127 * maxDim)
	if want < 0 {
		t.Fatal("bound itself overflows; shrink maxDim")
	}
	q, b := make([]int8, 4*maxDim), make([]int8, maxDim)
	for _, tier := range hostTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			for _, tc := range []struct {
				q, b int8
				want int32
			}{
				{127, 127, want},
				{127, -127, -want},
				{-127, -127, want},
				{-128, 127, -128 * 127 * maxDim},
				{-128, -128, 128 * 128 * maxDim},
			} {
				for i := range q {
					q[i] = tc.q
				}
				for i := range b {
					b[i] = tc.b
				}
				if got := DotI8(q[:maxDim], b); got != tc.want {
					t.Fatalf("%d·%d: DotI8 = %d, want %d", tc.q, tc.b, got, tc.want)
				}
				var out [4]int32
				DotI8Block4(q[:maxDim], q[maxDim:2*maxDim], q[2*maxDim:3*maxDim], q[3*maxDim:], b, &out)
				if out != [4]int32{tc.want, tc.want, tc.want, tc.want} {
					t.Fatalf("%d·%d: DotI8Block4 = %v, want %d", tc.q, tc.b, out, tc.want)
				}
			}
		})
	}
}

// FuzzDotI8 cross-checks every tier against the scalar reference on
// arbitrary byte strings (reinterpreted as int8), the int8 analogue of
// FuzzRowKernels' dot oracle: the first string is the query, the second as
// many corpus rows as it holds.
func FuzzDotI8(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{4, 5, 6})
	f.Add(make([]byte, 64), make([]byte, 64))
	f.Add([]byte{0x80, 0x7f, 0x80}, []byte{0x7f, 0x80, 0x80, 1, 2, 3, 0xff, 0xfe, 0xfd})
	f.Fuzz(func(t *testing.T, qb, cb []byte) {
		d := len(qb)
		n := 0
		if d > 0 {
			n = len(cb) / d
		}
		q, codes := make([]int8, d), make([]int8, n*d)
		for i := range q {
			q[i] = int8(qb[i])
		}
		for i := range codes {
			codes[i] = int8(cb[i])
		}
		o1, o4 := make([]int32, n), make([]int32, 4*n)
		for _, tier := range hostTiers() {
			forceTier(t, tier)
			dotI8Rows1(q, codes, o1)
			dotI8Rows4(q, q, q, q, codes, o4[:n], o4[n:2*n], o4[2*n:3*n], o4[3*n:])
			for i := 0; i < n; i++ {
				want := dotI8Scalar(q, codes[i*d:(i+1)*d])
				if o1[i] != want || o4[i] != want || o4[3*n+i] != want {
					t.Fatalf("%v d=%d row %d of %d: rows1=%d rows4=%d,%d scalar=%d", tier, d, i, n, o1[i], o4[i], o4[3*n+i], want)
				}
			}
		}
	})
}

var sinkI32 int32

// BenchmarkDotI8Rows is the scan's scoring stage per tier: four queries
// against one flat run of the sparse_indexed workload's shape (5600 rows,
// d = 128) through the 4×n kernel, the same through four 1×n passes, and
// the 4×1 call DotI8Block4 makes per row.
func BenchmarkDotI8Rows(b *testing.B) {
	const d, n = 128, 5600
	rng := rand.New(rand.NewSource(47))
	qs, codes := make([]int8, 4*d), make([]int8, n*d)
	i8Fills["random"](rng, qs, codes)
	o := make([]int32, 4*n)
	for _, tier := range hostTiers() {
		run := func(name string, f func()) {
			b.Run(fmt.Sprintf("%v/%s", tier, name), func(b *testing.B) {
				forceTier(b, tier)
				b.SetBytes(4 * n * d)
				for i := 0; i < b.N; i++ {
					f()
				}
				sinkI32 = o[0]
			})
		}
		run("rows4", func() {
			dotI8Rows4(qs[:d], qs[d:2*d], qs[2*d:3*d], qs[3*d:], codes, o[:n], o[n:2*n], o[2*n:3*n], o[3*n:])
		})
		run("rows1x4", func() {
			for j := 0; j < 4; j++ {
				dotI8Rows1(qs[j*d:(j+1)*d], codes, o[j*n:(j+1)*n])
			}
		})
		run("block4-per-row", func() {
			var out [4]int32
			for r := 0; r < n; r++ {
				DotI8Block4(qs[:d], qs[d:2*d], qs[2*d:3*d], qs[3*d:], codes[r*d:(r+1)*d], &out)
			}
			o[0] = out[0]
		})
	}
}
