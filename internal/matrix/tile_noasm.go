//go:build !amd64 || purego

package matrix

// Without the amd64 assembly every tile score comes from the per-pair dot;
// these stubs keep the dispatch in kernels.go portable.

const hasAVX512VL = false

func tileRows3AVX2(a, b, out []float64, d, n int) { panic("matrix: tileRows3AVX2 without asm") }

func tileRows6VL(a, b, out []float64, d, n int) { panic("matrix: tileRows6VL without asm") }
