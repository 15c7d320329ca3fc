package core_test

// The dense bodies as they stood before they were rebuilt on the packed
// ranking primitive and the fused Sinkhorn sweep — SMat's preference builds
// over sort.Slice, RInf's Clone → SubRowVector → Apply passes and per-row
// sort.Slice rank transform, Sinkhorn's three sweeps per iteration with a
// serial column sum, Hungarian's dense solver with two column passes per
// augmentation step — kept verbatim (the matrix methods they called are
// inlined as ref* helpers) as the references the production bodies must stay
// bit-identical to: same pairs, same scores, same abstentions, same
// transform matrices.
// SinkhornSparse's body before its column scale was deferred (three serial
// CSR sweeps per iteration) is kept the same way, and so are the two orders
// that left sort.Slice (Sink.-mb's column popularity, RL's confidence).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"entmatcher/internal/conformance"
	"entmatcher/internal/core"
	"entmatcher/internal/matrix"
)

const checkRowStride = 64

func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// refGaleShapley is GaleShapleyDecider.Decide before the rewrite.
type refGaleShapley struct{ core.GaleShapleyDecider }

func (refGaleShapley) Decide(ctx *core.Context, s *matrix.Dense) ([]core.Pair, []int, error) {
	rows, cols := s.Rows(), s.Cols()
	if rows == 0 || cols == 0 {
		return nil, nil, fmt.Errorf("gale-shapley: empty matrix %d×%d", rows, cols)
	}
	cc := ctx.Cancellation()

	// Row preference lists: columns in descending score order.
	rowPref := make([][]int32, rows)
	for i := 0; i < rows; i++ {
		if i%checkRowStride == 0 {
			if err := ctxErr(cc); err != nil {
				return nil, nil, err
			}
		}
		row := s.Row(i)
		order := make([]int32, cols)
		for j := range order {
			order[j] = int32(j)
		}
		sort.Slice(order, func(a, b int) bool {
			va, vb := row[order[a]], row[order[b]]
			if va != vb {
				return va > vb
			}
			return order[a] < order[b]
		})
		rowPref[i] = order
	}

	// Column rank tables: colRank[j][i] = position of row i in column j's
	// preference (lower is better).
	colRank := make([][]int32, cols)
	{
		order := make([]int, rows)
		for j := 0; j < cols; j++ {
			if j%checkRowStride == 0 {
				if err := ctxErr(cc); err != nil {
					return nil, nil, err
				}
			}
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool {
				va, vb := s.At(order[a], j), s.At(order[b], j)
				if va != vb {
					return va > vb
				}
				return order[a] < order[b]
			})
			ranks := make([]int32, rows)
			for r, i := range order {
				ranks[i] = int32(r)
			}
			colRank[j] = ranks
		}
	}

	// Deferred acceptance.
	next := make([]int, rows)    // next proposal index per row
	engaged := make([]int, cols) // column -> row, -1 when free
	for j := range engaged {
		engaged[j] = -1
	}
	free := make([]int, rows)
	for i := range free {
		free[i] = i
	}
	proposals := 0
	for len(free) > 0 {
		i := free[len(free)-1]
		free = free[:len(free)-1]
		for next[i] < cols {
			proposals++
			if proposals%checkRowStride == 0 {
				if err := ctxErr(cc); err != nil {
					return nil, nil, err
				}
			}
			j := int(rowPref[i][next[i]])
			next[i]++
			cur := engaged[j]
			if cur == -1 {
				engaged[j] = i
				i = -1
				break
			}
			if colRank[j][i] < colRank[j][cur] {
				engaged[j] = i
				i = cur // the displaced row proposes again
			}
		}
	}

	realCols := cols - ctx.NumDummies
	assigned := make([]int, rows)
	for i := range assigned {
		assigned[i] = -1
	}
	for j, i := range engaged {
		if i >= 0 {
			assigned[i] = j
		}
	}
	pairs := make([]core.Pair, 0, rows)
	var abstained []int
	for i, j := range assigned {
		if j < 0 || j >= realCols {
			abstained = append(abstained, i)
			continue
		}
		pairs = append(pairs, core.Pair{Source: i, Target: j, Score: s.At(i, j)})
	}
	return pairs, abstained, nil
}

// refRowRanksInPlace is Dense.RowRanksInPlace before the rewrite.
func refRowRanksInPlace(m *matrix.Dense) {
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		order := make([]int, len(row))
		for j := range order {
			order[j] = j
		}
		sort.Slice(order, func(a, b int) bool {
			if row[order[a]] != row[order[b]] {
				return row[order[a]] > row[order[b]]
			}
			return order[a] < order[b]
		})
		for r, j := range order {
			row[j] = float64(r + 1)
		}
	}
}

// refReciprocal is ReciprocalTransform{WithRanking: true} before the rewrite.
// (Not embedded: a promoted TransformContext would run the production body.)
type refReciprocal struct{}

func (refReciprocal) Name() string { return "reciprocal-reference" }

func (refReciprocal) ExtraBytes(rows, cols int) int64 {
	return core.ReciprocalTransform{WithRanking: true}.ExtraBytes(rows, cols)
}

func (refReciprocal) Transform(s *matrix.Dense) (*matrix.Dense, error) {
	rows, cols := s.Rows(), s.Cols()
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("reciprocal: empty matrix %d×%d", rows, cols)
	}
	rowMaxes, _ := s.RowMax() // max over targets for each source
	colMaxes, _ := s.ColMax() // max over sources for each target

	// P_st(u, v) = S(u, v) − colMax(v) + 1.
	pst := s.Clone()
	if err := pst.SubRowVector(colMaxes); err != nil {
		return nil, err
	}
	pst.Apply(func(v float64) float64 { return v + 1 })

	// P_ts(v, u) = S(u, v) − rowMax(u) + 1, stored transposed (cols×rows).
	pts := s.Transpose()
	if err := pts.SubRowVector(rowMaxes); err != nil {
		return nil, err
	}
	pts.Apply(func(v float64) float64 { return v + 1 })

	refRowRanksInPlace(pst)
	refRowRanksInPlace(pts)
	// Reciprocal rank matrix: −(R_st + R_tsᵀ)/2.
	ptsT := pts.Transpose()
	for i := 0; i < rows; i++ {
		dst := pst.Row(i)
		add := ptsT.Row(i)
		for j := range dst {
			dst[j] = -(dst[j] + add[j]) / 2
		}
	}
	return pst, nil
}

// refNormalizeRowsInPlace, refColSums and refNormalizeColsInPlace are the
// Dense methods of the same names before the rewrite.
func refNormalizeRowsInPlace(m *matrix.Dense, eps float64) {
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		var s float64
		for _, v := range row {
			s += v
		}
		if math.Abs(s) < eps {
			continue
		}
		inv := 1 / s
		for j := range row {
			row[j] *= inv
		}
	}
}

func refColSums(m *matrix.Dense) []float64 {
	out := make([]float64, m.Cols())
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

func refNormalizeColsInPlace(m *matrix.Dense, eps float64) {
	sums := refColSums(m)
	inv := make([]float64, m.Cols())
	for j, s := range sums {
		if math.Abs(s) < eps {
			inv[j] = 1
		} else {
			inv[j] = 1 / s
		}
	}
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= inv[j]
		}
	}
}

// refSinkhorn is SinkhornTransform before the rewrite.
type refSinkhorn struct {
	L   int
	Tau float64
}

func (refSinkhorn) Name() string { return "sinkhorn-reference" }

func (t refSinkhorn) ExtraBytes(rows, cols int) int64 {
	return core.SinkhornTransform{L: t.L, Tau: t.Tau}.ExtraBytes(rows, cols)
}

func (t refSinkhorn) Transform(s *matrix.Dense) (*matrix.Dense, error) {
	if t.L < 0 {
		return nil, fmt.Errorf("sinkhorn: negative iteration count %d", t.L)
	}
	if t.Tau <= 0 {
		return nil, fmt.Errorf("sinkhorn: temperature must be positive, got %v", t.Tau)
	}
	out := s.Clone()
	gi, gj := s.Argmax()
	var gmax float64
	if gi >= 0 {
		gmax = s.At(gi, gj)
	}
	inv := 1 / t.Tau
	out.Apply(func(v float64) float64 { return math.Exp((v - gmax) * inv) })
	const eps = 1e-300
	for l := 0; l < t.L; l++ {
		refNormalizeRowsInPlace(out, eps)
		refNormalizeColsInPlace(out, eps)
	}
	return out, nil
}

// refSinkhornSparse is SinkhornSparse.Match before the rewrite (the tile
// source is resolved inline; sparseSource is not exported).
type refSinkhornSparse struct{ core.SinkhornSparse }

func (m refSinkhornSparse) Match(ctx *core.Context) (*core.Result, error) {
	if ctx == nil {
		return nil, core.ErrNoMatrix
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
	src := ctx.Stream
	if src == nil {
		src = &matrix.DenseTileSource{M: ctx.S}
	}
	rows, cols := src.Dims()
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

	const eps = 1e-300
	colSum := make([]float64, cols)
	colInv := make([]float64, cols)
	for l := 0; l < m.L; l++ {
		if err := ctxErr(cc); err != nil {
			return nil, err
		}
		// Row normalization: per-row sum in ascending column order.
		for i := 0; i < rows; i++ {
			_, scores := w.Row(i)
			var s float64
			for _, v := range scores {
				s += v
			}
			if math.Abs(s) < eps {
				continue
			}
			rinv := 1 / s
			for x := range scores {
				scores[x] *= rinv
			}
		}
		// Column normalization: sums accumulate row-major exactly like
		// Dense.ColSums, then every edge is scaled.
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
	pairs := make([]core.Pair, 0, rows)
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
		pairs = append(pairs, core.Pair{Source: i, Target: bestJ, Score: best})
	}
	return &core.Result{
		Matcher:    m.Name(),
		Pairs:      pairs,
		Abstained:  abstained,
		Elapsed:    time.Since(start),
		ExtraBytes: 2*fwd.SizeBytes() + int64(fwd.NNZ())*8 + int64(cols)*16 + int64(matrix.DefaultTileRows*matrix.DefaultTileCols)*8,
	}, nil
}

// refCSLSSparse is CSLSSparse.Match before its row pass ran on the worker
// pool: one serial loop over the rows.
type refCSLSSparse struct{ core.CSLSSparse }

func (m refCSLSSparse) Match(ctx *core.Context) (*core.Result, error) {
	if ctx == nil {
		return nil, core.ErrNoMatrix
	}
	if m.C < 1 {
		return nil, fmt.Errorf("csls-sparse: candidate budget must be positive, got %d", m.C)
	}
	if m.K < 1 {
		return nil, fmt.Errorf("csls-sparse: K must be positive, got %d", m.K)
	}
	start := time.Now()
	cc := ctx.Cancellation()
	src := ctx.Stream
	if src == nil {
		src = &matrix.DenseTileSource{M: ctx.S}
	}
	rows, cols := src.Dims()
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
	pairs := make([]core.Pair, 0, rows)
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
		pairs = append(pairs, core.Pair{Source: i, Target: bestJ, Score: best})
	}
	return &core.Result{
		Matcher:    m.Name(),
		Pairs:      pairs,
		Abstained:  abstained,
		Elapsed:    time.Since(start),
		ExtraBytes: fwd.SizeBytes() + int64(cols)*int64(kCol)*16 + int64(rows+cols)*8 + int64(matrix.DefaultTileRows*matrix.DefaultTileCols)*8,
	}, nil
}

// refHungarian is HungarianDecider.Decide on its dense solver, before the
// augmentation step was fused into one column pass and before the decider
// moved onto the candidate-graph search: solveLAP with its two passes per
// step — the relaxation, then the pivot scan — kept as it was.
type refHungarian struct{ core.HungarianDecider }

func (refHungarian) Decide(ctx *core.Context, s *matrix.Dense) ([]core.Pair, []int, error) {
	rows, cols := s.Rows(), s.Cols()
	if rows == 0 || cols == 0 {
		return nil, nil, fmt.Errorf("hungarian: empty matrix %d×%d", rows, cols)
	}
	cc := ctx.Cancellation()
	var rowOf []int
	if rows <= cols {
		var err error
		rowOf, _, err = refSolveLAP(cc, s)
		if err != nil {
			return nil, nil, err
		}
	} else {
		rowAssign, _, err := refSolveLAP(cc, s.Transpose())
		if err != nil {
			return nil, nil, err
		}
		rowOf = make([]int, cols)
		for j := range rowOf {
			rowOf[j] = -1
		}
		for origRow, origCol := range rowAssign {
			if origCol >= 0 {
				rowOf[origCol] = origRow
			}
		}
	}
	assigned := make([]int, rows)
	for i := range assigned {
		assigned[i] = -1
	}
	for j, i := range rowOf {
		if i >= 0 {
			assigned[i] = j
		}
	}
	realCols := cols - ctx.NumDummies
	pairs := make([]core.Pair, 0, rows)
	var abstained []int
	for i, j := range assigned {
		if j < 0 || j >= realCols {
			abstained = append(abstained, i)
			continue
		}
		pairs = append(pairs, core.Pair{Source: i, Target: j, Score: s.At(i, j)})
	}
	return pairs, abstained, nil
}

// refSolveLAP returns, for each column, the row assigned to it (-1 if none),
// with the number of column scans its searches made: one per scanned column.
func refSolveLAP(ctx context.Context, s *matrix.Dense) ([]int, int, error) {
	n, m := s.Rows(), s.Cols()
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1)
	pred := make([]int, m+1)
	dist := make([]float64, m+1)
	scanned := make([]bool, m+1)
	ready := make([]int, 0, m)
	scans := 0

	for i := 1; i <= n; i++ {
		p[0] = i
		for j := 1; j <= m; j++ {
			scanned[j] = false
			pred[j] = 0
		}
		ready = ready[:0]
		row := s.Row(i - 1)
		for j := 1; j <= m; j++ {
			dist[j] = -row[j-1] - u[i] - v[j]
		}
		jf := -1
		var df float64
		for {
			if err := ctxErr(ctx); err != nil {
				return nil, 0, err
			}
			j1 := -1
			best := math.Inf(1)
			for j := 1; j <= m; j++ {
				if !scanned[j] && dist[j] < best {
					best = dist[j]
					j1 = j
				}
			}
			if j1 < 0 {
				break
			}
			if p[j1] == 0 {
				jf, df = j1, best
				break
			}
			scanned[j1] = true
			ready = append(ready, j1)
			i2 := p[j1]
			r2 := s.Row(i2 - 1)
			d := dist[j1]
			for j := 1; j <= m; j++ {
				if scanned[j] {
					continue
				}
				nd := d + (-r2[j-1] - u[i2] - v[j])
				if nd < dist[j] {
					dist[j] = nd
					pred[j] = j1
				}
			}
		}
		scans += len(ready)
		if jf < 0 {
			continue
		}
		u[i] += df
		for _, j := range ready {
			u[p[j]] += df - dist[j]
			v[j] -= df - dist[j]
		}
		for j := jf; j != 0; {
			pj := pred[j]
			p[j] = p[pj]
			j = pj
		}
	}
	out := make([]int, m)
	for j := 1; j <= m; j++ {
		out[j-1] = p[j] - 1
	}
	return out, scans, nil
}

// refPartitionBatches is SinkhornBlocked's partitionBatches before its column
// order moved onto matrix.OrderDesc: a sort.SliceStable by (count desc,
// index asc).
func refPartitionBatches(rowBest []int, cols, batchSize int) (batchRows, batchCols [][]int) {
	colOrder := make([]int, cols)
	for j := range colOrder {
		colOrder[j] = j
	}
	popularity := make([]int, cols)
	for _, j := range rowBest {
		if j >= 0 {
			popularity[j]++
		}
	}
	sort.SliceStable(colOrder, func(a, b int) bool {
		if popularity[colOrder[a]] != popularity[colOrder[b]] {
			return popularity[colOrder[a]] > popularity[colOrder[b]]
		}
		return colOrder[a] < colOrder[b]
	})
	batchOf := make([]int, cols)
	numBatches := (cols + batchSize - 1) / batchSize
	batchCols = make([][]int, numBatches)
	for rank, j := range colOrder {
		b := rank % numBatches
		batchOf[j] = b
		batchCols[b] = append(batchCols[b], j)
	}
	batchRows = make([][]int, numBatches)
	for i, j := range rowBest {
		if j < 0 {
			continue
		}
		b := batchOf[j]
		batchRows[b] = append(batchRows[b], i)
	}
	return batchRows, batchCols
}

// refByTopScore is RL's confidence order before it moved onto
// matrix.OrderDesc: a sort.Slice by (top score desc, row asc).
func refByTopScore(rows []int, topk []matrix.TopK) []int {
	out := append([]int(nil), rows...)
	sort.Slice(out, func(a, b int) bool {
		va, vb := topk[out[a]].Values[0], topk[out[b]].Values[0]
		if va != vb {
			return va > vb
		}
		return out[a] < out[b]
	})
	return out
}

// TestOrderingsMatchReference pins the two orders that left sort.Slice —
// Sink.-mb's column popularity order and RL's confidence order — to the
// sorts they replaced, on tie-heavy inputs: few distinct counts, top scores
// on a coarse grid with both zeros, rows unmatched (pivot −1).
func TestOrderingsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for rep := 0; rep < 200; rep++ {
		rows, cols := 1+rng.Intn(300), 1+rng.Intn(200)
		rowBest := make([]int, rows)
		for i := range rowBest {
			rowBest[i] = rng.Intn(min(cols, 1+rng.Intn(8))+1) - 1
		}
		batch := 2 + rng.Intn(40)
		gr, gc := core.PartitionBatches(rowBest, cols, batch)
		wr, wc := refPartitionBatches(rowBest, cols, batch)
		if !reflect.DeepEqual(gr, wr) || !reflect.DeepEqual(gc, wc) {
			t.Fatalf("rep %d: partition diverged from the stable sort's", rep)
		}

		grid := []float64{-0.5, math.Copysign(0, -1), 0, 0.25, 0.5}
		topk := make([]matrix.TopK, rows)
		var remaining []int
		for i := range topk {
			topk[i].Values = []float64{grid[rng.Intn(len(grid))]}
			if rng.Intn(3) > 0 {
				remaining = append(remaining, i)
			}
		}
		if got, want := core.ByTopScore(remaining, topk), refByTopScore(remaining, topk); !slices.Equal(got, want) {
			t.Fatalf("rep %d: confidence order %v, sort.Slice %v", rep, got, want)
		}
	}
}

// TestHungarianMatchesReferenceBody holds the decider — the candidate-graph
// search over the dense rows — to the dense two-pass body: pairs, scores,
// abstentions, on the reference cases (square, tall through the transposed
// problem, wide, ties, dummies) at its start width and at widths 1, 2 and 8,
// where most row scans run out of candidates and fall back to the whole row.
// Two inputs aim at that fallback at the start width too: an all-equal
// block, where every row scan and every search's first pass takes it, and a
// dummy block wider than the start width whose all-equal scores sit above
// most real ones, so they fill most of every row's prefix (both checked).
func TestHungarianMatchesReferenceBody(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	constant := matrix.New(50, 50)
	constant.Fill(0.5)
	dummies := conformance.WithDummyCols("wide-dummies-60x45+40", conformance.WellSeparated(rng, 60, 45), 40, 0.9)
	cases := append(referenceCases(), conformance.Case{Name: "constant-50x50", S: constant}, dummies)
	w, err := core.HungarianWork(constant, core.LAPStartWidth)
	if err != nil {
		t.Fatal(err)
	}
	if w.WholeRows != w.Scanned+constant.Rows() {
		t.Fatalf("constant block: %d whole-row passes over %d row scans and %d searches, want one per scan and search", w.WholeRows, w.Scanned, constant.Rows())
	}
	if w, err = core.HungarianWork(dummies.S, core.LAPStartWidth); err != nil || w.WholeRows == 0 {
		t.Fatalf("wide dummy block: no whole-row pass (%+v, %v)", w, err)
	}
	for _, c := range cases {
		ctx := func() *core.Context { return &core.Context{S: c.S.Clone(), NumDummies: c.NumDummies} }
		want, err := core.NewComposite(core.NoneTransform{}, refHungarian{}, "Hun.").Match(ctx())
		if err != nil {
			t.Fatal(err)
		}
		for _, c0 := range []int{1, 2, 8, core.LAPStartWidth} {
			m := core.NewHungarian()
			if c0 != core.LAPStartWidth {
				m = core.NewHungarianAt(c0)
			}
			got, err := m.Match(ctx())
			if err != nil {
				t.Fatal(err)
			}
			if !conformance.ResultsIdentical(got, want) {
				t.Fatalf("%s at start width %d: result diverged from the reference body: %s", c.Name, c0, conformance.DescribeDiff(got, want))
			}
		}
	}
}

// TestSinkhornCancelMidSweep cancels a transform from outside while its
// sweeps run — so the cancel lands inside a strip hand-off, not at a poll —
// and requires ctx.Err() and no matrix, every time.
func TestSinkhornCancelMidSweep(t *testing.T) {
	s := conformance.WellSeparated(rand.New(rand.NewSource(61)), 300, 2300)
	tr := core.SinkhornTransform{L: 100000, Tau: core.DefaultSinkhornTau}
	for _, delay := range []time.Duration{0, time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond} {
		cc, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		out, err := tr.TransformContext(cc, s)
		timer.Stop()
		cancel()
		if out != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled after %v: out=%v err=%v, want no matrix and context.Canceled", delay, out != nil, err)
		}
	}
}

// referenceCases is the adversarial suite plus shapes large enough to reach
// what the toy matrices cannot: the radix path of the ranking primitive
// (rows longer than 64), the four-row blocks of the Sinkhorn sweeps with a
// ragged tail, column-gather tiles with a short last tile, and more than one
// chunk per worker — tall, wide and with dummy columns.
func referenceCases() []conformance.Case {
	rng := rand.New(rand.NewSource(19))
	// Cosine-like scores of both signs, signed zeros included.
	signed := func(rows, cols int) *matrix.Dense {
		s := conformance.WellSeparated(rng, rows, cols)
		s.Apply(func(v float64) float64 { return 2*v - 1 })
		s.Set(0, 0, 0)
		s.Set(rows-1, cols-1, math.Copysign(0, -1))
		return s
	}
	return append(conformance.AdversarialCases(1),
		conformance.Case{Name: "signed-square-131x131", S: signed(131, 131)},
		conformance.Case{Name: "signed-tall-150x97", S: signed(150, 97)},
		conformance.Case{Name: "signed-wide-97x150", S: signed(97, 150)},
		conformance.Case{Name: "tie-dense-120x120", S: conformance.TieHeavy(rng, 120, 120, 8)},
		conformance.Case{Name: "duplicate-rows-70x133", S: conformance.DuplicateRows(rng, 70, 133)},
		conformance.Case{Name: "near-equal-1ulp-90x90", S: conformance.NearEqual(rng, 90, 90)},
		conformance.WithDummyCols("dummies-110x90+5", signed(110, 90), 5, 0.25),
		conformance.WithDummyCols("tie-dummies-80x100+3", conformance.TieHeavy(rng, 80, 100, 4), 3, 0.5),
	)
}

func TestDenseBodiesMatchReferenceBodies(t *testing.T) {
	sink := core.SinkhornTransform{L: 30, Tau: core.DefaultSinkhornTau}
	bodies := []struct {
		name      string
		got, want core.Matcher
		// transforms are compared bit for bit where the body is a transform.
		gotT, wantT core.ScoreTransform
	}{
		{
			name: "SMat",
			got:  core.NewSMat(),
			want: core.NewComposite(core.NoneTransform{}, refGaleShapley{}, "SMat"),
		},
		{
			name: "RInf",
			got:  core.NewRInf(),
			want: core.NewComposite(refReciprocal{}, core.GreedyDecider{}, "RInf"),
			gotT: core.ReciprocalTransform{WithRanking: true}, wantT: refReciprocal{},
		},
		{
			name: "Sink.",
			got:  core.NewComposite(sink, core.GreedyDecider{}, "Sink."),
			want: core.NewComposite(refSinkhorn{sink.L, sink.Tau}, core.GreedyDecider{}, "Sink."),
			gotT: sink, wantT: refSinkhorn{sink.L, sink.Tau},
		},
	}
	for _, c := range referenceCases() {
		for _, b := range bodies {
			t.Run(b.name+"/"+c.Name, func(t *testing.T) {
				ctx := func() *core.Context { return &core.Context{S: c.S.Clone(), NumDummies: c.NumDummies} }
				got, err := b.got.Match(ctx())
				if err != nil {
					t.Fatal(err)
				}
				want, err := b.want.Match(ctx())
				if err != nil {
					t.Fatal(err)
				}
				if !conformance.ResultsIdentical(got, want) {
					t.Fatalf("result diverged from the reference body: %s", conformance.DescribeDiff(got, want))
				}
				if b.gotT == nil {
					return
				}
				gotM, err := b.gotT.Transform(c.S.Clone())
				if err != nil {
					t.Fatal(err)
				}
				wantM, err := b.wantT.Transform(c.S.Clone())
				if err != nil {
					t.Fatal(err)
				}
				if !gotM.EqualBits(wantM) {
					t.Fatal("transform matrix is not bit-identical to the reference body's")
				}
			})
		}
	}
}

// TestSinkhornDeferredScaleMatchesReference walks L through the values where
// the deferred column scale changes shape — none pending (0), only the
// trailing one (1), a carried one (2, 3, 10) — on a matrix with a dead row and
// a dead column: scores so far below the maximum that their exponentials
// underflow to zero, so both eps guards run in every iteration.
func TestSinkhornDeferredScaleMatchesReference(t *testing.T) {
	s := conformance.WellSeparated(rand.New(rand.NewSource(29)), 70, 67)
	for j := 0; j < s.Cols(); j++ {
		s.Set(5, j, -100)
	}
	for i := 0; i < s.Rows(); i++ {
		s.Set(i, 7, -100)
	}
	for _, l := range []int{0, 1, 2, 3, 10} {
		tr := core.SinkhornTransform{L: l, Tau: core.DefaultSinkhornTau}
		got, err := tr.Transform(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refSinkhorn{tr.L, tr.Tau}.Transform(s)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualBits(want) {
			t.Fatalf("L=%d: transform not bit-identical to the reference body", l)
		}
		if l > 0 && (got.At(5, 0) != 0 || got.At(0, 7) != 0) {
			t.Fatalf("L=%d: the dead row and column did not stay zero; the eps guards were not exercised", l)
		}
	}
}

// raggedSource is an approximate producer over a dense matrix, as an index
// below full coverage is: its forward graph keeps a prefix of every exact row
// — none of every seventh row, a third, two thirds or all of the others.
type raggedSource struct{ *matrix.DenseTileSource }

func (r raggedSource) ProduceParts(ctx context.Context, req matrix.GraphRequest) (matrix.GraphParts, error) {
	parts, err := matrix.StreamParts(ctx, r.DenseTileSource, req)
	if err != nil || parts.Fwd == nil {
		return parts, err
	}
	g := parts.Fwd
	tks := make([]matrix.TopK, g.Rows())
	for i := range tks {
		cand, scores := g.Row(i)
		n := len(cand) * (i%3 + 1) / 3
		if i%7 == 6 {
			n = 0
		}
		idx := make([]int, n)
		for x := range idx {
			idx[x] = int(cand[x])
		}
		tks[i] = matrix.TopK{Values: scores[:n], Indices: idx}
	}
	parts.Fwd, err = matrix.NewCandGraph(g.Cols(), tks)
	return parts, err
}

// sweepCases reach the graph sweep's strip hand-off (matrix.CandGraph's
// SinkhornSweep): at full width 3.6 to 3.7 strips, in row counts of 1, 2 and
// 3 mod 4, each with a dead row and a dead column (exponentials that
// underflow to zero, so both eps guards run) and a row whose exponentials are
// subnormal and sum below eps.
func sweepCases() []conformance.Case {
	rng := rand.New(rand.NewSource(37))
	var cases []conformance.Case
	for _, rows := range []int{401, 402, 403} {
		s := conformance.WellSeparated(rng, rows, 397)
		for j := 0; j < s.Cols(); j++ {
			s.Set(5, j, -100)
			s.Set(9, j, 1-35.45-1e-4*float64(j))
		}
		for i := 0; i < rows; i++ {
			s.Set(i, 7, -100)
		}
		cases = append(cases, conformance.Case{Name: fmt.Sprintf("strips-%dx397", rows), S: s})
	}
	return cases
}

// TestSinkhornDeferredScaleMatchesReferenceSparse holds SinkhornSparse to its
// pre-rewrite body — pairs, score bits, abstentions, ExtraBytes — on the
// reference cases at truncating and full budgets, with L walking through the
// shapes of the deferred scale (none pending, only the trailing one, a
// carried one, many) and a matrix whose dead row and dead column keep both
// eps guards busy in every iteration; then on the sweep's multi-strip cases
// and on ragged rows from an approximate producer; at GOMAXPROCS 1, 2, 3
// and 8.
func TestSinkhornDeferredScaleMatchesReferenceSparse(t *testing.T) {
	dead := conformance.WellSeparated(rand.New(rand.NewSource(31)), 70, 67)
	for j := 0; j < dead.Cols(); j++ {
		dead.Set(5, j, -100)
	}
	for i := 0; i < dead.Rows(); i++ {
		dead.Set(i, 7, -100)
	}
	cases := append(referenceCases(), conformance.Case{Name: "dead-row-and-column-70x67", S: dead})
	cases = append(cases, sweepCases()...)
	ragged := conformance.WithDummyCols("ragged-producer-150x120+4", conformance.WellSeparated(rand.New(rand.NewSource(39)), 150, 120), 4, 0.5)
	cases = append(cases, ragged)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			// The multi-strip cases stop at L = 5: every iteration runs the same
			// sweep, and a hundred over 160 000 edges cost a minute under -race.
			ls := []int{0, 1, 2, 100}
			if c.S.Rows() > 400 {
				ls = []int{0, 1, 2, 5}
			}
			for _, budget := range []int{3, c.S.Rows() + c.S.Cols()} {
				for _, l := range ls {
					m := core.SinkhornSparse{C: budget, L: l, Tau: core.DefaultSinkhornTau}
					ctx := func() *core.Context {
						s := c.S.Clone()
						if c.Name == ragged.Name {
							return &core.Context{S: s, Stream: raggedSource{&matrix.DenseTileSource{M: s}}, NumDummies: c.NumDummies}
						}
						return &core.Context{S: s, NumDummies: c.NumDummies}
					}
					got, err := m.Match(ctx())
					if err != nil {
						t.Fatal(err)
					}
					want, err := refSinkhornSparse{m}.Match(ctx())
					if err != nil {
						t.Fatal(err)
					}
					if !conformance.ResultsIdentical(got, want) {
						t.Fatalf("GOMAXPROCS=%d %s C=%d L=%d: result diverged from the reference body: %s", procs, c.Name, budget, l, conformance.DescribeDiff(got, want))
					}
					if got.ExtraBytes != want.ExtraBytes {
						t.Fatalf("GOMAXPROCS=%d %s C=%d L=%d: ExtraBytes %d, reference %d", procs, c.Name, budget, l, got.ExtraBytes, want.ExtraBytes)
					}
				}
			}
		}
	}
}

// TestCSLSSparseMatchesReference holds CSLSSparse to its serial body at
// GOMAXPROCS 1, 2, 3 and 8 — pairs, score bits, abstentions, ExtraBytes — on
// the reference cases at budgets 1, 3 and full width and K = 1 and 3, on a
// dense context and on streamed tiles.
func TestCSLSSparseMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range referenceCases() {
			dense := &core.Context{S: c.S, NumDummies: c.NumDummies}
			for _, ctx := range []*core.Context{dense, conformance.StreamContext(dense, 5, 4)} {
				for _, budget := range []int{1, 3, c.S.Rows() + c.S.Cols()} {
					for _, k := range []int{1, 3} {
						m := core.CSLSSparse{C: budget, K: k}
						got, err := m.Match(ctx)
						if err != nil {
							t.Fatal(err)
						}
						want, err := refCSLSSparse{m}.Match(ctx)
						if err != nil {
							t.Fatal(err)
						}
						if !conformance.ResultsIdentical(got, want) || got.ExtraBytes != want.ExtraBytes {
							t.Fatalf("GOMAXPROCS=%d %s stream=%v C=%d K=%d: diverged from the serial body (ExtraBytes %d, reference %d): %s",
								procs, c.Name, ctx.Stream != nil, budget, k, got.ExtraBytes, want.ExtraBytes, conformance.DescribeDiff(got, want))
						}
					}
				}
			}
		}
	}
}

// flipCtx reports context.Canceled from its (after+1)-th Err call on: a
// deterministic way to cancel a body at a chosen checkpoint, whatever the
// worker count.
type flipCtx struct {
	context.Context
	after, calls int32
}

func (c *flipCtx) Err() error {
	if atomic.AddInt32(&c.calls, 1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestDenseBodiesCancelAtEveryCheckpoint: a context cancelled at any poll of
// SMat's decider — the row preference build, the column-tile build, the
// proposal loop — or of a Sinkhorn transform — the exponentiation kernel,
// then one poll per iteration between the sweeps — ends the body with
// ctx.Err() and no output. Each body first runs to completion to count its
// polls, then is cancelled at every one of them in turn.
func TestDenseBodiesCancelAtEveryCheckpoint(t *testing.T) {
	const n = 200
	s := conformance.WellSeparated(rand.New(rand.NewSource(23)), n, n)
	polls := func(run func(cc context.Context) error) int32 {
		probe := &flipCtx{Context: context.Background(), after: math.MaxInt32}
		if err := run(probe); err != nil {
			t.Fatal(err)
		}
		return probe.calls
	}
	cancelEverywhere := func(name string, total int32, run func(cc context.Context) error) {
		for after := int32(0); after < total; after++ {
			cc := &flipCtx{Context: context.Background(), after: after}
			if err := run(cc); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s cancelled at poll %d of %d: err=%v, want context.Canceled", name, after+1, total, err)
			}
		}
	}

	smat := func(cc context.Context) error {
		pairs, abstained, err := core.GaleShapleyDecider{}.Decide(&core.Context{S: s, Ctx: cc}, s)
		if err != nil && (pairs != nil || abstained != nil) {
			t.Fatalf("SMat returned output beside %v", err)
		}
		return err
	}
	total := polls(smat)
	// Both preference builds poll at least once per checkRowStride rows
	// (columns), plus the driver's closing poll each.
	if minPolls := int32(2 * (n/checkRowStride + 1)); total < minPolls {
		t.Fatalf("SMat polled its context %d times on %d×%d, want at least %d", total, n, n, minPolls)
	}
	cancelEverywhere("SMat", total, smat)

	sinkhorn := func(l int) func(cc context.Context) error {
		return func(cc context.Context) error {
			out, err := core.SinkhornTransform{L: l, Tau: core.DefaultSinkhornTau}.TransformContext(cc, s)
			if err != nil && out != nil {
				t.Fatalf("Sinkhorn returned a matrix beside %v", err)
			}
			return err
		}
	}
	const iters = 8
	kernel, total := polls(sinkhorn(0)), polls(sinkhorn(iters))
	if total != kernel+iters {
		t.Fatalf("Sinkhorn polled %d times over %d iterations beyond the kernel's %d, want one per iteration", total-kernel, iters, kernel)
	}
	cancelEverywhere("Sinkhorn", total, sinkhorn(iters))
}
