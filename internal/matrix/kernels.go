package matrix

// This file holds the scalar and block (tile) kernels of the similarity
// engine: a dot product for cosine scores and the negated-distance scalars
// for Euclidean/Manhattan, each wrapped in a block kernel that fills a
// destination from two row-offset windows. internal/sim's Stream runs these
// block kernels and nothing else to turn embedding tables into scores — its
// tiles, its Blocks and the dense matrix (the kernel written in place over
// full-width row strips) — and MulTransposed is the cosine block kernel over
// a whole product, so dense and streamed scores are bit-identical by
// construction for every metric.
//
// On amd64 with AVX2+FMA the dot product dispatches to the vectorized
// dotAVX2 (dot_amd64.s) for vectors of 16+ elements — the similarity pass is
// >75 % of a streamed sparse match, so this is the single highest-leverage
// kernel in the repository. The dispatch is decided once at startup from
// CPUID, so every score in a process comes from the same kernel and the
// engine's determinism and tile-shape invariance are unaffected; results may
// differ across CPU generations by a few ulps, like any vectorized BLAS.

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

// dot is the kernel behind every streamed cosine score: the AVX2+FMA path
// when the CPU supports it and the vector is long enough to fill a vector
// step, the portable unrolled scalar otherwise. Short vectors always take
// the scalar path, so low-dimensional scores are identical on every
// platform.
func dot(a, b []float64) float64 {
	if hasFastDot && len(a) >= 16 {
		return dotAVX2(a, b)
	}
	return dotUnroll4(a, b)
}

// Dot4 exposes the dot kernel to sibling packages; it is the per-pair
// arithmetic of every cosine score (the block kernel's groups of three are
// bit-identical to it), so all cosine scores share one summation order.
func Dot4(a, b []float64) float64 { return dot(a, b) }

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

// MulTransposedBlockInto fills dst with the aOff/bOff-offset block of a×bᵀ:
//
//	dst[r][c] = dot(a.Row(aOff+r), b.Row(bOff+c))
//
// for r < dst.Rows(), c < dst.Cols(). The block must lie fully inside the
// product's shape; dimensions are not re-checked here (the streaming driver
// validates once). Source rows are processed in register-blocked groups of
// three sharing each b-row load (dotBlock3), computed in parallel on the
// worker pool; the ragged last group falls back to the per-pair kernel.
// Every element is bit-identical to the per-pair dot, so tile shape and
// blocking never change a score. The b block (dst.Cols() rows of b) is the
// reuse target: at tile sizes it stays resident in cache while every group
// of a rows streams across it, and the blocking cuts its re-read traffic 3×.
func MulTransposedBlockInto(dst, a, b *Dense, aOff, bOff int) {
	d := a.cols
	groups := (dst.rows + 2) / 3
	parallelRows(groups, func(g int) {
		r := g * 3
		if r+3 <= dst.rows {
			a0 := a.data[(aOff+r)*d : (aOff+r+1)*d]
			a1 := a.data[(aOff+r+1)*d : (aOff+r+2)*d]
			a2 := a.data[(aOff+r+2)*d : (aOff+r+3)*d]
			o0, o1, o2 := dst.Row(r), dst.Row(r+1), dst.Row(r+2)
			var blk [3]float64
			for c := range o0 {
				brow := b.data[(bOff+c)*d : (bOff+c+1)*d]
				dotBlock3(a0, a1, a2, brow, &blk)
				o0[c], o1[c], o2[c] = blk[0], blk[1], blk[2]
			}
			return
		}
		for ; r < dst.rows; r++ {
			arow := a.data[(aOff+r)*d : (aOff+r+1)*d]
			orow := dst.Row(r)
			for c := range orow {
				orow[c] = dot(arow, b.data[(bOff+c)*d:(bOff+c+1)*d])
			}
		}
	})
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
