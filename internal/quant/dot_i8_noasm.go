//go:build !amd64 || purego

package quant

// kernelTier is the scalar tier without the amd64 assembly kernels: every
// int8 dot comes from the portable dotI8Scalar. (A var, as on amd64, so the
// tests' tier override compiles everywhere.)
var kernelTier = tierScalar

// The asm tiers are never dispatched to when kernelTier is tierScalar; these
// stubs keep dot.go portable.
func dotI8Rows4AVX2(q0, q1, q2, q3, codes []int8, o0, o1, o2, o3 []int32) {
	panic("quant: dotI8Rows4AVX2 without asm")
}
func dotI8Rows1AVX2(q, codes []int8, o []int32) { panic("quant: dotI8Rows1AVX2 without asm") }
func dotI8Rows4VNNI(q0, q1, q2, q3, codes []int8, o0, o1, o2, o3 []int32) {
	panic("quant: dotI8Rows4VNNI without asm")
}
func dotI8Rows1VNNI(q, codes []int8, o []int32) { panic("quant: dotI8Rows1VNNI without asm") }

// prefetchRow is a hint; without the asm it is nothing.
func prefetchRow([]float64) {}
