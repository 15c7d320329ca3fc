//go:build !amd64 || purego

package matrix

// hasFastDot is false without the amd64 assembly kernel; the dot product of
// 16+ elements runs dotFMA in Go, with the assembly's bits.
const hasFastDot = false

// dotAVX2 is never called when hasFastDot is false; this stub keeps the
// dispatch in kernels.go portable.
func dotAVX2(a, b []float64) float64 { panic("matrix: dotAVX2 without asm") }
