package quant

// The int8 dot kernel comes in three tiers, chosen once per process by the
// machine and never by an option: AVX512-VNNI (VPDPBUSD: 32 values per
// instruction), AVX2 (VPMOVSXBW + VPMADDWD + VPADDD: 32 values per seven
// instructions) and the portable scalar loop. Integer
// addition is exact and associative, so every tier returns EXACTLY
// dotI8Scalar's bits (pinned per tier in dot_test.go), not merely ulp-close;
// the accumulator cannot overflow for lengths up to 2^16 (Encode's maxDim
// guard).
type i8Tier uint8

const (
	tierScalar i8Tier = iota
	tierAVX2
	tierVNNI
)

// DotI8 returns the int32 dot product Σ a[j]·b[j] of two equal-length int8
// vectors.
func DotI8(a, b []int8) int32 {
	var out [1]int32
	dotI8Rows1(a, b, out[:])
	return out[0]
}

// DotI8Block4 computes out[j] = DotI8(qj, b) for four quantized query rows
// sharing one corpus row, bit-for-bit on every platform.
func DotI8Block4(q0, q1, q2, q3, b []int8, out *[4]int32) {
	dotI8Rows4(q0, q1, q2, q3, b, out[0:1], out[1:2], out[2:3], out[3:4])
}

// dotI8Rows4 scores the len(o0) rows of codes — consecutive rows of len(q0)
// values — against four queries at once: oj[i] = Σ qj·codes[i]. Each corpus
// chunk is loaded once for all four queries, and one call covers a whole
// run, so the scan pays neither four slab reads nor a Go call per row. It is
// the one entry to the 4×n kernel of the machine's tier; DotI8Block4 is its
// n = 1 case.
func dotI8Rows4(q0, q1, q2, q3, codes []int8, o0, o1, o2, o3 []int32) {
	d, n := len(q0), len(o0)
	q1, q2, q3, codes = q1[:d], q2[:d], q3[:d], codes[:n*d]
	o1, o2, o3 = o1[:n], o2[:n], o3[:n]
	switch {
	case n == 0:
	case d == 0 || kernelTier == tierScalar:
		dotI8Rows1(q0, codes, o0)
		dotI8Rows1(q1, codes, o1)
		dotI8Rows1(q2, codes, o2)
		dotI8Rows1(q3, codes, o3)
	case kernelTier == tierVNNI:
		dotI8Rows4VNNI(q0, q1, q2, q3, codes, o0, o1, o2, o3)
	default:
		dotI8Rows4AVX2(q0, q1, q2, q3, codes, o0, o1, o2, o3)
	}
}

// dotI8Rows1 is dotI8Rows4 for a single query: o[i] = Σ q·codes[i]. DotI8 is
// its n = 1 case.
func dotI8Rows1(q, codes []int8, o []int32) {
	d, n := len(q), len(o)
	codes = codes[:n*d]
	switch {
	case n == 0:
	case d == 0 || kernelTier == tierScalar:
		for i := range o {
			o[i] = dotI8Scalar(q, codes[i*d:(i+1)*d])
		}
	case kernelTier == tierVNNI:
		dotI8Rows1VNNI(q, codes, o)
	default:
		dotI8Rows1AVX2(q, codes, o)
	}
}

// dotI8Scalar is the portable reference kernel: one widening multiply-add
// per element. It defines the kernel contract; every asm tier must agree
// exactly on every input.
func dotI8Scalar(a, b []int8) int32 {
	var s int32
	for j := range a {
		s += int32(a[j]) * int32(b[j])
	}
	return s
}
