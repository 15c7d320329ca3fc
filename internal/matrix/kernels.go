package matrix

// This file holds the scalar and block (tile) kernels of the similarity
// engine: a dot product for cosine scores and the negated-distance scalars
// for Euclidean/Manhattan, each wrapped in a block kernel that fills a
// destination from two row-offset windows. internal/sim's Stream runs these
// block kernels and nothing else to turn embedding tables into scores — its
// tiles, its Blocks and the dense matrix (the kernel written in place over
// full-width row strips) — and MulTransposed is the cosine block kernel over
// a whole product, so dense and streamed scores are bit-identical by
// construction for every metric. The indexed walker (internal/quant's
// Scanner) runs the same cosine tile kernel through TileKernel, one call per
// probed run, so every float64 scan shares one kernel.
//
// The dot product of a vector of 16+ elements has one arithmetic on every
// build: dotFMA's 16 FMA lanes, reduction tree and sequential FMA tail. On
// amd64 with AVX2+FMA it runs vectorized as dotAVX2 (dot_amd64.s) — the
// similarity pass is >75 % of a streamed sparse match, so this is the single
// highest-leverage kernel in the repository — and the cosine tile kernel
// runs groups of 6 rows against 2 targets per step in ZMM registers
// (AVX512VL) or 3 rows against 1 target in YMM registers (AVX2) per
// assembly call (tile_amd64.s), each pair with the same arithmetic.
// Everywhere else (-tags purego, other architectures, CPUs without
// AVX2+FMA) dotFMA runs in Go and returns the same bits, so a score does not
// depend on the build or the CPU.
// Shorter vectors take dotUnroll4 on every build. The dispatch is decided
// once at startup from CPUID. The one order costs the builds without the
// assembly: on an amd64 CPU without hardware FMA, math.FMA is emulated in
// software, so dotFMA runs far slower there than where FMA is an instruction.
// That case is not measured; the hosts this was measured on all have FMA.

import "math"

// dotUnroll4 is a 4-way unrolled dot product: four independent accumulators
// break the loop-carried dependency on the single sum, letting the CPU
// overlap the multiply-adds. Summation order is fixed (pairwise at the end),
// so the result is deterministic for given inputs.
func dotUnroll4(a, b []float64) float64 {
	n := len(a)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	var t float64
	for ; i < n; i++ {
		t += a[i] * b[i]
	}
	return ((s0 + s1) + (s2 + s3)) + t
}

// dotFMA is the dot product of every vector of 16+ elements, in dotAVX2's
// order: 16 FMA lanes over 16-element steps (lane l sums the elements i with
// i mod 16 == l), reduced lanewise as (acc0+acc1)+(acc2+acc3) over the four
// 4-lane groups, then (l0+l2)+(l1+l3) across lanes, with the tail folded in
// by sequential FMAs. TestDotAVX2MatchesReference holds the assembly to it
// bit for bit.
func dotFMA(a, b []float64) float64 {
	// Named accumulators over re-sliced 16-element windows keep the lanes in
	// registers and the window loads free of bounds checks.
	var a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 float64
	n := len(a) &^ 15
	b = b[:len(a)]
	for i := 0; i < n; i += 16 {
		x, y := a[i:i+16:i+16], b[i:i+16:i+16]
		a0 = math.FMA(x[0], y[0], a0)
		a1 = math.FMA(x[1], y[1], a1)
		a2 = math.FMA(x[2], y[2], a2)
		a3 = math.FMA(x[3], y[3], a3)
		a4 = math.FMA(x[4], y[4], a4)
		a5 = math.FMA(x[5], y[5], a5)
		a6 = math.FMA(x[6], y[6], a6)
		a7 = math.FMA(x[7], y[7], a7)
		a8 = math.FMA(x[8], y[8], a8)
		a9 = math.FMA(x[9], y[9], a9)
		a10 = math.FMA(x[10], y[10], a10)
		a11 = math.FMA(x[11], y[11], a11)
		a12 = math.FMA(x[12], y[12], a12)
		a13 = math.FMA(x[13], y[13], a13)
		a14 = math.FMA(x[14], y[14], a14)
		a15 = math.FMA(x[15], y[15], a15)
	}
	r0 := (a0 + a4) + (a8 + a12)
	r1 := (a1 + a5) + (a9 + a13)
	r2 := (a2 + a6) + (a10 + a14)
	r3 := (a3 + a7) + (a11 + a15)
	res := (r0 + r2) + (r1 + r3)
	for i := n; i < len(a); i++ {
		res = math.FMA(a[i], b[i], res)
	}
	return res
}

// dot is the kernel behind every cosine score: dotFMA's arithmetic for a
// vector that fills a 16-element step — vectorized when the CPU has AVX2+FMA
// — and dotUnroll4 for a shorter one, so every score has the same bits on
// every build.
func dot(a, b []float64) float64 {
	if len(a) >= 16 {
		if hasFastDot {
			return dotAVX2(a, b)
		}
		return dotFMA(a, b)
	}
	return dotUnroll4(a, b)
}

// Dot4 exposes the dot kernel to sibling packages; it is the per-pair
// arithmetic of every cosine score (the tile kernels' row groups are
// bit-identical to it), so all cosine scores share one summation order.
func Dot4(a, b []float64) float64 { return dot(a, b) }

// DotBlockRows writes Dot4(a[i], b) into out[i] for every row of a; len(out)
// must be at least len(a). It is a per-pair loop kept only because
// benchmark/probes.go compiles against it (its matrix.dot_block3_* probe
// times this loop), until ROADMAP 19(c) moves that probe in-tree.
func DotBlockRows(a [][]float64, b []float64, out []float64) {
	for i, row := range a {
		out[i] = dot(row, b)
	}
}

// negEuclidean returns the negated Euclidean (L2) distance between two
// equal-length vectors, accumulated in index order.
func negEuclidean(a, b []float64) float64 {
	var acc float64
	for k, v := range a {
		diff := v - b[k]
		acc += diff * diff
	}
	return -math.Sqrt(acc)
}

// negManhattan returns the negated Manhattan (L1) distance between two
// equal-length vectors, accumulated in index order.
func negManhattan(a, b []float64) float64 {
	var acc float64
	for k, v := range a {
		acc += math.Abs(v - b[k])
	}
	return -acc
}

// tileWidth is the source-row group of the widest tile kernel this process
// runs, picked once from CPUID: 6 (tileRows6VL, the ZMM 6×2 kernel,
// AVX512VL), 3 (tileRows3AVX2, AVX2+FMA) or 1 (the per-pair dot). Only tests
// override it (export_test.go).
var tileWidth = bestTileWidth()

func bestTileWidth() int {
	switch {
	case hasFastDot && hasAVX512VL:
		return 6
	case hasFastDot:
		return 3
	}
	return 1
}

// MulTransposedBlockInto fills dst with the aOff/bOff-offset block of a×bᵀ:
//
//	dst[r][c] = dot(a.Row(aOff+r), b.Row(bOff+c))
//
// for r < dst.Rows(), c < dst.Cols(). The block must lie fully inside the
// product's shape; dimensions are not re-checked here (the streaming driver
// validates once). Source rows are split into groups of tileWidth, run in
// parallel on the worker pool; each group is one tile-kernel call that walks
// every target row of the block and stores straight into the group's output
// rows. Every element is bit-identical to the per-pair dot, so tile shape
// and tier never change a score. The b block (dst.Cols() rows of b) is the
// reuse target: at tile sizes it stays resident in cache while every group
// of a rows streams across it, and each b-row load serves the whole group.
func MulTransposedBlockInto(dst, a, b *Dense, aOff, bOff int) {
	d, n, g := a.cols, dst.cols, tileWidth
	bs := b.data[bOff*d : (bOff+n)*d]
	parallelRows((dst.rows+g-1)/g, func(i int) {
		r := i * g
		rows := min(g, dst.rows-r)
		tileRows(dst.data[r*n:(r+rows)*n], a.data[(aOff+r)*d:(aOff+r+rows)*d], bs, rows, d, n)
	})
}

// TileKernel is the tile kernel on the calling goroutine, for sibling
// packages: out[j*n+c] = Dot4(a_j, b_c) for a_j = a[j*d:(j+1)*d], j < rows,
// and b_c = b[c*d:(c+1)*d], c < n. FMA is exactly commutative in its two
// multiplicands, so out[j*n+c] is also Dot4(b_c, a_j) bit for bit: the
// indexed walker passes a probed run's corpus rows as a and one query as b
// (n = 1).
func TileKernel(out, a, b []float64, rows, d, n int) { tileRows(out, a, b, rows, d, n) }

// tileRows writes dot(a_j, b_c) into out[j*n+c] for the rows source rows of a
// and the n target rows of b (d elements each). Whole groups of six and then
// three go to the widest kernel tileWidth allows; what is left, and every
// vector shorter than dot's 16-element vector step, is scored per pair.
func tileRows(out, a, b []float64, rows, d, n int) {
	r := 0
	if d >= 16 {
		for ; tileWidth >= 6 && r+6 <= rows; r += 6 {
			tileRows6VL(a[r*d:(r+6)*d], b, out[r*n:(r+6)*n], d, n)
		}
		for ; tileWidth >= 3 && r+3 <= rows; r += 3 {
			tileRows3AVX2(a[r*d:(r+3)*d], b, out[r*n:(r+3)*n], d, n)
		}
	}
	for ; r < rows; r++ {
		arow, orow := a[r*d:(r+1)*d], out[r*n:(r+1)*n]
		for c := range orow {
			orow[c] = dot(arow, b[c*d:(c+1)*d])
		}
	}
}

// NegEuclideanBlockInto is MulTransposedBlockInto for negated Euclidean
// distances.
func NegEuclideanBlockInto(dst, a, b *Dense, aOff, bOff int) {
	d := a.cols
	parallelRows(dst.rows, func(r int) {
		arow := a.data[(aOff+r)*d : (aOff+r+1)*d]
		orow := dst.Row(r)
		for c := range orow {
			orow[c] = negEuclidean(arow, b.data[(bOff+c)*d:(bOff+c+1)*d])
		}
	})
}

// NegManhattanBlockInto is MulTransposedBlockInto for negated Manhattan
// distances.
func NegManhattanBlockInto(dst, a, b *Dense, aOff, bOff int) {
	d := a.cols
	parallelRows(dst.rows, func(r int) {
		arow := a.data[(aOff+r)*d : (aOff+r+1)*d]
		orow := dst.Row(r)
		for c := range orow {
			orow[c] = negManhattan(arow, b.data[(bOff+c)*d:(bOff+c+1)*d])
		}
	})
}
