//go:build amd64 && !purego

package quant

// kernelTier is the int8 kernel tier of the running CPU (and OS), detected
// once at startup, mirroring matrix.hasFastDot: a given machine uses one
// kernel for the whole process lifetime. The int8 kernels are integer-only,
// so the AVX2 gate drops the FMA bit the float kernel needs; the VNNI gate
// asks for AVX512 F, BW, VL and VNNI with OS-enabled ZMM and opmask state
// (EVEX encodings need it even at 256 bits).
var kernelTier = detectTier()

func detectTier() i8Tier {
	switch {
	case cpuSupportsVNNI():
		return tierVNNI
	case cpuSupportsAVX2():
		return tierAVX2
	}
	return tierScalar
}

// dotI8Rows4AVX2 and dotI8Rows1AVX2 are the AVX2 tier: per row, each
// iteration sign-extends 32 bytes of each operand to int16 lanes
// (VPMOVSXBW), multiplies and pair-sums them into int32 lanes (VPMADDWD) and
// accumulates into two YMM registers per query, with the tail folded in
// scalar. The 4×n form widens each corpus chunk once for all four queries.
// Implemented in dot_i8_amd64.s.
//
//go:noescape
func dotI8Rows4AVX2(q0, q1, q2, q3, codes []int8, o0, o1, o2, o3 []int32)

//go:noescape
func dotI8Rows1AVX2(q, codes []int8, o []int32)

// dotI8Rows4VNNI and dotI8Rows1VNNI are the AVX512-VNNI tier: 32 values
// per VPDPBUSD, on 256-bit registers so the core's clock stays where it was.
// The instruction multiplies unsigned by signed bytes, so the corpus bytes
// are biased to unsigned by XOR 0x80 (c + 128) and 128·Σq, which the kernel
// computes once per call, comes off every sum: Σ (c+128)·q − 128·Σq = Σ c·q,
// exact in int32 (wrapping adds, and every term fits for lengths up to
// maxDim). Dimension tails use byte-masked loads. Implemented in
// dot_i8_vnni_amd64.s.
//
//go:noescape
func dotI8Rows4VNNI(q0, q1, q2, q3, codes []int8, o0, o1, o2, o3 []int32)

//go:noescape
func dotI8Rows1VNNI(q, codes []int8, o []int32)

// prefetchRow asks the cache hierarchy for every line of row ahead of its
// use; it reads nothing and cannot fault. Implemented in dot_i8_amd64.s.
//
//go:noescape
func prefetchRow(row []float64)

// cpuSupportsAVX2 checks CPUID for AVX2 and XGETBV for OS-enabled YMM
// state; cpuSupportsVNNI for AVX512 F/BW/VL/VNNI and OS-enabled ZMM and
// opmask state. Implemented in dot_i8_amd64.s.
func cpuSupportsAVX2() bool
func cpuSupportsVNNI() bool
