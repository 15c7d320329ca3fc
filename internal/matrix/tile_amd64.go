//go:build amd64 && !purego

package matrix

// hasAVX512VL reports whether the CPU and OS support AVX512F and AVX512VL
// with ZMM state on all 32 registers, the precondition of tileRows6VL.
var hasAVX512VL = cpuSupportsAVX512VL()

// tileRows3AVX2 writes dot(a_j, b_c) into out[j*n+c] for the three source rows
// a_j = a[j*d:(j+1)*d] and every target row b_c = b[c*d:(c+1)*d], c < n. Each
// score is bit-identical to dotAVX2(a_j, b_c). d must be at least 16, and a,
// b and out must hold 3·d, n·d and 3·n elements. Implemented in
// tile_amd64.s.
//
//go:noescape
func tileRows3AVX2(a, b, out []float64, d, n int)

// tileRows6VL is tileRows3AVX2 for six source rows, in 512-bit registers:
// each step scores the six rows against two target rows, each pair's 16 FMA
// lanes in two ZMM accumulators, and an odd last target takes a one-target
// pass. a and out hold 6·d and 6·n elements. Implemented in tile_amd64.s.
//
//go:noescape
func tileRows6VL(a, b, out []float64, d, n int)

// cpuSupportsAVX512VL checks CPUID for AVX512F and AVX512VL and XGETBV for
// OS-enabled opmask and ZMM state. Implemented in tile_amd64.s.
func cpuSupportsAVX512VL() bool
