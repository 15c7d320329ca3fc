package matrix

import "math"

// This file holds the inner loops of the Sinkhorn bodies in internal/core:
// one Sinkhorn iteration over a dense matrix (Dense.SinkhornSweep) and over a
// candidate graph (CandGraph.SinkhornSweep). The dense sweep's two passes
// have portable Go bodies and, on amd64 with AVX2, assembly kernels
// (assign_amd64.s) that produce the same bits: every value the Go body rounds
// is rounded by the kernel in the same operation order, only more of them at
// once. The Go bodies are the purego/non-amd64 fallback and the reference the
// kernels are tested against (assign_test.go). The graph sweep is Go only.

// assignAVX2 routes SinkhornSweep's row and column passes to their AVX2
// kernels. It is the package's CPUID gate (hasFastDot) read once at startup;
// only tests override it (export_test.go).
var assignAVX2 = hasFastDot

// sweepStripBytes sizes the row strips of both sweeps (a graph strip counts
// 12 bytes per edge: a column id and a score): a strip is written by its row
// pass and re-read by its column pass, and stays in the core's private cache
// in between.
const sweepStripBytes = 512 << 10

// SinkhornSweep is one Sinkhorn iteration over m, in place and in one read and
// one write of the matrix. Column j is multiplied by scale[j] (all ones before
// the first iteration: x·1 is x exactly) and every row is divided by its sum;
// a row whose sum has absolute value below eps keeps its scaled values. next
// (len Cols(), not aliasing scale) receives the column normalizers of the
// result: 1/sum per column, or 1 where the sum's absolute value is below eps.
//
// The bits are those of three serial passes — scale, then row-normalize, then
// sum the columns:
//   - each product is rounded to a double before it is summed (never fused),
//     and a row sum adds those doubles in ascending column order;
//   - every column sum adds its rows in ascending row order, from +0.
//
// Rows are cut into strips. A worker normalizes a strip's rows (any order:
// rows are independent) and then, after the strip before it has been added,
// adds the strip's rows into the column sums, so the column additions keep
// their serial row order at every worker count.
func (m *Dense) SinkhornSweep(scale, next []float64, eps float64) {
	cols := m.cols
	scale, next = scale[:cols], next[:cols]
	clear(next)
	if cols > 0 {
		stripRows := max(8, sweepStripBytes/(8*cols)&^7)
		strip := func(k int) []float64 {
			return m.data[k*stripRows*cols : min((k+1)*stripRows, m.rows)*cols]
		}
		parallelInOrder((m.rows+stripRows-1)/stripRows,
			func(k int) { normalizeRows(strip(k), scale, eps) },
			func(k int) { addRows(next, strip(k)) })
	}
	invertSums(next, eps)
}

// invertSums replaces each column sum by its normalizer: 1/sum, or 1 where
// the sum's absolute value is below eps.
func invertSums(sums []float64, eps float64) {
	for j, s := range sums {
		if math.Abs(s) < eps {
			sums[j] = 1
		} else {
			sums[j] = 1 / s
		}
	}
}

// normalizeRows runs SinkhornSweep's row pass over rows, a whole number of
// rows of len(scale) each: eight rows per AVX2 kernel call, the rest (and
// everything on the scalar tier) four and then one at a time.
func normalizeRows(rows, scale []float64, eps float64) {
	n := len(scale)
	row := func(i int) []float64 { return rows[i*n : (i+1)*n] }
	divide := func(r []float64, s float64) {
		if math.Abs(s) < eps {
			return
		}
		inv := 1 / s
		for j := range r {
			r[j] *= inv
		}
	}
	nrows, i := len(rows)/n, 0
	if assignAVX2 {
		for ; i+8 <= nrows; i += 8 {
			sweepRows8AVX2(rows[i*n:(i+8)*n], scale, eps)
		}
	}
	for ; i+4 <= nrows; i += 4 {
		r0, r1, r2, r3 := row(i), row(i+1), row(i+2), row(i+3)
		s0, s1, s2, s3 := scaleSum4(r0, r1, r2, r3, scale)
		divide(r0, s0)
		divide(r1, s1)
		divide(r2, s2)
		divide(r3, s3)
	}
	for ; i < nrows; i++ {
		r := row(i)
		divide(r, scaleSum(r, scale))
	}
}

// scaleSum multiplies r[j] by scale[j] in place and returns the sum of the
// products, added in ascending j order.
func scaleSum(r, scale []float64) (s float64) {
	r = r[:len(scale)]
	for j, c := range scale {
		t := float64(r[j] * c)
		r[j] = t
		s += t
	}
	return s
}

// scaleSum4 is scaleSum over four rows at once: four independent addition
// chains, each in its own row's column order.
func scaleSum4(r0, r1, r2, r3, scale []float64) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(scale)], r1[:len(scale)], r2[:len(scale)], r3[:len(scale)]
	for j, c := range scale {
		t0, t1, t2, t3 := float64(r0[j]*c), float64(r1[j]*c), float64(r2[j]*c), float64(r3[j]*c)
		r0[j], r1[j], r2[j], r3[j] = t0, t1, t2, t3
		s0, s1, s2, s3 = s0+t0, s1+t1, s2+t2, s3+t3
	}
	return s0, s1, s2, s3
}

// addRows adds rows (a whole number of rows of len(acc) each) into acc in
// ascending row order, four rows per load and store of the accumulator; the
// additions into one column keep their order.
func addRows(acc, rows []float64) {
	n := len(acc)
	if n == 0 {
		return
	}
	i := 0
	if assignAVX2 {
		for ; i+4*n <= len(rows); i += 4 * n {
			addRows4AVX2(acc, rows[i:i+4*n])
		}
	}
	row := func(i int) []float64 { return rows[i : i+n][:len(acc)] }
	for ; i+4*n <= len(rows); i += 4 * n {
		r0, r1, r2, r3 := row(i), row(i+n), row(i+2*n), row(i+3*n)
		for j, a := range acc {
			acc[j] = a + r0[j] + r1[j] + r2[j] + r3[j]
		}
	}
	for ; i < len(rows); i += n {
		for j, v := range rows[i : i+n] {
			acc[j] += v
		}
	}
}

// SinkhornSweep is Dense.SinkhornSweep over the graph's edges, absent edges
// being exact zeros: in place, every edge to column j is multiplied by
// scale[j] and every row divided by its sum (a row whose sum has absolute
// value below eps keeps its scaled values); next (len Cols(), not aliasing
// scale) receives 1/sum per column of the result, or 1 where the sum's
// absolute value is below eps. Rows must be stored in ascending column order
// (ColSortedClone) for the sums to add as the dense sweep's do.
//
// The bits are those of three serial passes: each product rounded to a double
// before it is summed, a row sum adding its edges in stored order, every
// column sum adding its edges in ascending row order from +0. Rows are cut
// into strips of about sweepStripBytes of edges, as in the dense sweep: a
// worker scales, sums and normalizes a strip's rows, then, after the strip
// before it has been added, adds the strip's edges into the column sums.
func (g *CandGraph) SinkhornSweep(scale, next []float64, eps float64) {
	scale, next = scale[:g.cols], next[:g.cols]
	clear(next)
	if nnz := len(g.colIdx); nnz > 0 {
		stripRows := max(1, sweepStripBytes/(12*max(1, nnz/g.rows)))
		span := func(k int) (lo, hi int) { return k * stripRows, min((k+1)*stripRows, g.rows) }
		parallelInOrder((g.rows+stripRows-1)/stripRows,
			func(k int) {
				lo, hi := span(k)
				g.normalizeRows(lo, hi, scale, eps)
			},
			func(k int) {
				lo, hi := span(k)
				p, q := g.rowPtr[lo], g.rowPtr[hi]
				addEdges(next, g.colIdx[p:q], g.score[p:q])
			})
	}
	invertSums(next, eps)
}

// normalizeRows runs the graph sweep's row pass over rows [lo, hi), four
// rows at a time: their edges are scaled in one pass (no addition in it), then
// their sums run as four interleaved chains, each in its own row's order.
func (g *CandGraph) normalizeRows(lo, hi int, scale []float64, eps float64) {
	for i := lo; i < hi; i += 4 {
		k := min(i+4, hi)
		p, q := g.rowPtr[i], g.rowPtr[k]
		c, v := g.colIdx[p:q], g.score[p:q]
		v = v[:len(c)]
		for x, j := range c {
			v[x] *= scale[j]
		}
		var s [4]float64
		if k-i == 4 {
			_, v0 := g.Row(i)
			_, v1 := g.Row(i + 1)
			_, v2 := g.Row(i + 2)
			_, v3 := g.Row(i + 3)
			s[0], s[1], s[2], s[3] = sum4(v0, v1, v2, v3)
		} else {
			for r := i; r < k; r++ {
				_, vr := g.Row(r)
				s[r-i] = sumFrom(0, vr)
			}
		}
		for r := i; r < k; r++ {
			if math.Abs(s[r-i]) < eps {
				continue
			}
			inv := 1 / s[r-i]
			_, vr := g.Row(r)
			for x := range vr {
				vr[x] *= inv
			}
		}
	}
}

// sumFrom returns s plus the values of v, added in order.
func sumFrom(s float64, v []float64) float64 {
	for _, t := range v {
		s += t
	}
	return s
}

// sum4 is sumFrom(0, ·) over four rows of any lengths: four interleaved
// chains over their common length, then each row's tail on its own chain.
func sum4(v0, v1, v2, v3 []float64) (s0, s1, s2, s3 float64) {
	n := min(len(v0), len(v1), len(v2), len(v3))
	a0, a1, a2, a3 := v0[:n], v1[:n], v2[:n], v3[:n]
	for x := range a0 {
		s0 += a0[x]
		s1 += a1[x]
		s2 += a2[x]
		s3 += a3[x]
	}
	return sumFrom(s0, v0[n:]), sumFrom(s1, v1[n:]), sumFrom(s2, v2[n:]), sumFrom(s3, v3[n:])
}

// addEdges adds each v[x] into acc[c[x]], in stored order.
func addEdges(acc []float64, c []int32, v []float64) {
	v = v[:len(c)]
	for x, j := range c {
		acc[j] += v[x]
	}
}
