package core

import (
	"fmt"
	"math"
	"time"

	"entmatcher/internal/matrix"
)

// This file holds the sparse candidate-graph matcher twins. They consume a
// matrix.CandGraph (top-C candidates per row, plus reverse statistics where
// needed) and run the matching logic over the O(rows·C) edges alone, which
// is what lets the paper's heaviest algorithms — RInf, Hungarian, SMat — run
// at DWY100K scale without the dense matrix. The graphs come from the
// matrix.BuildCandGraph* entry points: one tiled pass over the score stream
// when nothing is held, and on a prepared Run — whose tile source sits
// behind a matrix.GraphMemo — only the parts no earlier matcher has built.
// Graphs obtained this way are shared and read-only; a twin that needs
// scratch (SinkhornSparse) clones.
//
// Exactness contract: at C >= cols (and C >= rows for the reverse side)
// every sparse twin's selections are bit-identical to its dense
// counterpart's, because all candidate selection funnels through the same
// bounded heap the dense kernels use and every reduction (φ sums, Sinkhorn
// normalizations, JV dual updates) visits values in the same order as its
// dense twin. Below full width the result is approximate: candidates
// outside the top-C are treated as absent. The conformance suite pins the
// full-width equality for all five twins.

// sparseSource resolves the tile source for a sparse matcher: the streaming
// engine when present, otherwise a tiled view of the dense matrix.
func sparseSource(ctx *Context) (matrix.TileSource, int, int, error) {
	src, err := streamOf(ctx)
	if err != nil {
		return nil, 0, 0, err
	}
	rows, cols := src.Dims()
	if rows == 0 || cols == 0 {
		return nil, 0, 0, fmt.Errorf("%w: %d×%d", ErrEmptyMatrix, rows, cols)
	}
	return src, rows, cols, nil
}

// CSLSSparse is CSLS (cross-domain similarity local scaling + greedy) over
// a candidate graph: the rescaled score 2·S(u,v) − φ_s(u) − φ_t(v) is
// evaluated only on u's top-C candidates. φ_t comes from a fused per-column
// top-K consumer — in the same tiled pass as the graph on a cold source; when
// the run's memo already holds the graph, in a pass of its own carrying only
// the column heaps, or at K = 1 with no pass at all where the memo can read
// it off a held reverse graph (matrix.GraphMemo). φ_s is the mean of the
// first K stored candidates, which for C >= K is exactly the dense top-K
// mean.
type CSLSSparse struct {
	// C is the per-row candidate budget.
	C int
	// K is the φ neighborhood size.
	K int
}

// Name returns "CSLS-sparse".
func (*CSLSSparse) Name() string { return "CSLS-sparse" }

// Match runs sparse CSLS matching.
func (m *CSLSSparse) Match(ctx *Context) (*Result, error) {
	if ctx == nil {
		return nil, ErrNoMatrix
	}
	if m.C < 1 {
		return nil, fmt.Errorf("csls-sparse: candidate budget must be positive, got %d", m.C)
	}
	if m.K < 1 {
		return nil, fmt.Errorf("csls-sparse: K must be positive, got %d", m.K)
	}
	start := time.Now()
	cc := ctx.Cancellation()
	src, rows, cols, err := sparseSource(ctx)
	if err != nil {
		return nil, err
	}
	kRow := m.K
	if kRow > cols {
		kRow = cols
	}
	kCol := m.K
	if kCol > rows {
		kCol = rows
	}
	c := m.C
	if c < kRow {
		// φ_s averages the first kRow candidates, so the graph must keep at
		// least that many.
		c = kRow
	}
	fwd, phiT, err := matrix.BuildCandGraphWithColMeans(cc, src, c, kCol)
	if err != nil {
		return nil, err
	}

	realCols := cols - ctx.NumDummies
	pairs := make([]Pair, 0, rows)
	var abstained []int
	for i := 0; i < rows; i++ {
		if i%checkRowStride == 0 {
			if err := ctxErr(cc); err != nil {
				return nil, err
			}
		}
		cand, scores := fwd.Row(i)
		// φ_s: mean of the row's top-kRow scores, summed in descending
		// order exactly as Dense.RowTopKMeans.
		n := kRow
		if n > len(scores) {
			n = len(scores)
		}
		var phiS float64
		if n > 0 {
			var s float64
			for _, v := range scores[:n] {
				s += v
			}
			phiS = s / float64(n)
		}
		best := math.Inf(-1)
		bestJ := -1
		for x, j32 := range cand {
			j := int(j32)
			// Same association order as the dense transform:
			// (2·v − φ_s) − φ_t.
			tv := scores[x]*2 - phiS
			tv -= phiT[j]
			// Candidates are stored in score order, not column order, so the
			// dense argmax's first-maximum rule becomes an explicit
			// smallest-column tie-break.
			if tv > best || (tv == best && j < bestJ) {
				best = tv
				bestJ = j
			}
		}
		if bestJ < 0 || bestJ >= realCols {
			abstained = append(abstained, i)
			continue
		}
		pairs = append(pairs, Pair{Source: i, Target: bestJ, Score: best})
	}
	return &Result{
		Matcher:    m.Name(),
		Pairs:      pairs,
		Abstained:  abstained,
		Elapsed:    time.Since(start),
		ExtraBytes: fwd.SizeBytes() + int64(cols)*int64(kCol)*16 + int64(rows+cols)*8 + int64(matrix.DefaultTileRows*matrix.DefaultTileCols)*8,
	}, nil
}

// SinkhornSparse is the Sinkhorn operation restricted to a candidate graph:
// the exponentiated candidate scores are alternately row- and
// column-normalized over the CSR edges only, then each row greedily takes
// its best normalized candidate. Absent edges are treated as exact zeros of
// the exponentiated matrix, so the iteration cost drops from O(L·n·m) to
// O(L·n·C).
type SinkhornSparse struct {
	// C is the per-row candidate budget.
	C int
	// L is the number of normalization iterations.
	L int
	// Tau is the softmax temperature, as in SinkhornTransform.
	Tau float64
}

// Name returns "Sink.-sparse".
func (*SinkhornSparse) Name() string { return "Sink.-sparse" }

// Match runs sparse Sinkhorn matching.
func (m *SinkhornSparse) Match(ctx *Context) (*Result, error) {
	if ctx == nil {
		return nil, ErrNoMatrix
	}
	if m.C < 1 {
		return nil, fmt.Errorf("sinkhorn-sparse: candidate budget must be positive, got %d", m.C)
	}
	if m.L < 0 {
		return nil, fmt.Errorf("sinkhorn: negative iteration count %d", m.L)
	}
	if m.Tau <= 0 {
		return nil, fmt.Errorf("sinkhorn: temperature must be positive, got %v", m.Tau)
	}
	start := time.Now()
	cc := ctx.Cancellation()
	src, rows, cols, err := sparseSource(ctx)
	if err != nil {
		return nil, err
	}
	fwd, err := matrix.BuildCandGraph(cc, src, m.C)
	if err != nil {
		return nil, err
	}
	// The normalization kernels must visit each row's entries in ascending
	// column order to sum exactly as the dense NormalizeRows/ColsInPlace do.
	w := fwd.ColSortedClone()

	// Numerical stabilization, as in the dense transform: subtract the
	// global maximum before exponentiating. Every row head is that row's
	// exact maximum for any C >= 1, so the graph's head maximum is the
	// dense Argmax value.
	var gmax float64
	heads := fwd.RowHeadScores()
	gbest := math.Inf(-1)
	for _, v := range heads {
		if v > gbest {
			gbest = v
		}
	}
	if !math.IsInf(gbest, -1) {
		gmax = gbest
	}
	inv := 1 / m.Tau
	for i := 0; i < rows; i++ {
		if i%checkRowStride == 0 {
			if err := ctxErr(cc); err != nil {
				return nil, err
			}
		}
		_, scores := w.Row(i)
		for x, v := range scores {
			scores[x] = math.Exp((v - gmax) * inv)
		}
	}

	// Each iteration is a row normalization then a column normalization. The
	// column scale is deferred into the next iteration's row pass, as in the
	// dense transform: one parallel sweep scales every edge by the pending
	// colInv (all ones before the first iteration: x·1 is x), rounds the
	// product to a double, sums the row in ascending column order and
	// normalizes it — value for value what scaling all edges first and then
	// normalizing rows computes. One trailing scale applies the last
	// iteration's column normalization.
	const eps = 1e-300
	colSum := make([]float64, cols)
	colInv := make([]float64, cols)
	for j := range colInv {
		colInv[j] = 1
	}
	scaleNormalizeRow := func(i int) {
		cand, scores := w.Row(i)
		var s float64
		for x, j := range cand {
			t := float64(scores[x] * colInv[j])
			scores[x] = t
			s += t
		}
		if math.Abs(s) < eps {
			return
		}
		rinv := 1 / s
		for x := range scores {
			scores[x] *= rinv
		}
	}
	for l := 0; l < m.L; l++ {
		if err := matrix.ParallelRowsCtx(cc, rows, scaleNormalizeRow); err != nil {
			return nil, err
		}
		// Column sums accumulate row-major exactly like Dense.ColSums: a
		// serial scatter into the cache-resident colSum (a column-parallel
		// gather over the CSC view measured slower).
		for j := range colSum {
			colSum[j] = 0
		}
		for i := 0; i < rows; i++ {
			cand, scores := w.Row(i)
			for x, j := range cand {
				colSum[j] += scores[x]
			}
		}
		for j, s := range colSum {
			if math.Abs(s) < eps {
				colInv[j] = 1
			} else {
				colInv[j] = 1 / s
			}
		}
	}
	if m.L > 0 {
		for i := 0; i < rows; i++ {
			cand, scores := w.Row(i)
			for x, j := range cand {
				scores[x] *= colInv[j]
			}
		}
	}

	// Greedy: first strict maximum in ascending column order, as
	// Dense.RowMax.
	realCols := cols - ctx.NumDummies
	pairs := make([]Pair, 0, rows)
	var abstained []int
	for i := 0; i < rows; i++ {
		if i%checkRowStride == 0 {
			if err := ctxErr(cc); err != nil {
				return nil, err
			}
		}
		cand, scores := w.Row(i)
		best := math.Inf(-1)
		bestJ := -1
		for x, v := range scores {
			if v > best {
				best = v
				bestJ = int(cand[x])
			}
		}
		if bestJ < 0 || bestJ >= realCols {
			abstained = append(abstained, i)
			continue
		}
		pairs = append(pairs, Pair{Source: i, Target: bestJ, Score: best})
	}
	return &Result{
		Matcher:    m.Name(),
		Pairs:      pairs,
		Abstained:  abstained,
		Elapsed:    time.Since(start),
		ExtraBytes: 2*fwd.SizeBytes() + int64(fwd.NNZ())*8 + int64(cols)*16 + int64(matrix.DefaultTileRows*matrix.DefaultTileCols)*8,
	}, nil
}

// NewCSLSSparse returns sparse CSLS with candidate budget c and φ
// neighborhood k.
func NewCSLSSparse(c, k int) *CSLSSparse { return &CSLSSparse{C: c, K: k} }

// NewSinkhornSparse returns sparse Sinkhorn with candidate budget c, l
// normalization iterations and the default temperature.
func NewSinkhornSparse(c, l int) *SinkhornSparse {
	return &SinkhornSparse{C: c, L: l, Tau: DefaultSinkhornTau}
}
