//go:build !amd64 || purego

package matrix

// Without the amd64 assembly, assignAVX2 is false and the Go bodies in
// assign.go run; these stubs keep the dispatch portable.

func sweepRows8AVX2(rows, scale []float64, eps float64) { panic("matrix: sweepRows8AVX2 without asm") }

func addRows4AVX2(acc, rows []float64) { panic("matrix: addRows4AVX2 without asm") }
