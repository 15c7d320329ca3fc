package matrix

// Register-blocked multi-query dot kernel: three source rows scored against
// one shared target row per call, for scans whose query rows are not
// consecutive rows of one table (internal/quant's f64 walker). Amortizing one
// target-row load across a block of queries raises arithmetic intensity 3×.
// Bit-identity with the per-pair kernel is part of the contract: each pair
// keeps dotAVX2's four YMM accumulators, and 3 pairs × 4 accumulators + 4
// shared target-row chunks fill the 16 YMM registers AVX2 has (see
// dot_block_amd64.s). With AVX512VL's 32 YMM registers the same per-pair
// layout fits six pairs; the tile kernels (tile_amd64.s) use that width where
// the CPU has it.

// dotBlock3 computes out[j] = dot(aj, b) for j in 0..2. Each out[j] is
// bit-identical to dot(aj, b): the AVX2 path replicates dotAVX2's per-pair
// arithmetic exactly (FP multiplication is commutative, so holding b in the
// register and streaming a from memory rounds identically), and the
// dispatch condition is the same len >= 16 cut so short vectors take the
// scalar kernel on every platform. All four slices must have equal length.
func dotBlock3(a0, a1, a2, b []float64, out *[3]float64) {
	if hasFastDot && len(b) >= 16 {
		dotBlock3AVX2(a0, a1, a2, b, out)
		return
	}
	out[0] = dotUnroll4(a0, b)
	out[1] = dotUnroll4(a1, b)
	out[2] = dotUnroll4(a2, b)
}

// DotBlock3 exposes the blocked kernel to sibling packages (the f64 walker
// of internal/quant's Scanner). out[j] == Dot4(aj, b) bit-for-bit on every
// platform.
func DotBlock3(a0, a1, a2, b []float64, out *[3]float64) {
	dotBlock3(a0, a1, a2, b, out)
}

// DotBlockRows scores every row of a (len(a) query rows, arbitrary count)
// against the single target row b, writing Dot4(a[i], b) into out[i]. Full
// 3-row groups go through the blocked kernel; the ragged remainder falls
// back to the per-pair kernel, so every element is bit-identical to a plain
// Dot4 loop. len(out) must be >= len(a).
func DotBlockRows(a [][]float64, b []float64, out []float64) {
	i := 0
	for ; i+3 <= len(a); i += 3 {
		var blk [3]float64
		dotBlock3(a[i], a[i+1], a[i+2], b, &blk)
		out[i], out[i+1], out[i+2] = blk[0], blk[1], blk[2]
	}
	for ; i < len(a); i++ {
		out[i] = dot(a[i], b)
	}
}
