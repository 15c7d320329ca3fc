package core

import (
	"context"
	"fmt"
	"sync"

	"entmatcher/internal/matrix"
)

// ReciprocalTransform implements the RInf reciprocal preference model
// (Zeng et al., VLDB J 2021; the paper's § 3.4 and Algorithm 5). The
// preference of source u for target v is
//
//	p(u, v) = S(u, v) − max_{u'} S(u', v) + 1,
//
// i.e. u's score discounted by v's best alternative; symmetrically for the
// target side. Both preference matrices are (optionally) converted to
// per-row rank matrices, and the reciprocal matrix is their average. The
// transform returns −(R_st + R_tsᵀ)/2 so that greedy maximization picks the
// best (smallest) average rank.
type ReciprocalTransform struct {
	// WithRanking enables the rank conversion. Disabling it yields the
	// RInf-wr variant: cheaper, but score differences are not amplified
	// before the bidirectional aggregation, which the paper shows to be
	// equivalent in effect to CSLS with k=1.
	WithRanking bool
}

// Name returns "reciprocal" or "reciprocal-wr".
func (t ReciprocalTransform) Name() string {
	if t.WithRanking {
		return "reciprocal"
	}
	return "reciprocal-wr"
}

// Transform computes the reciprocal preference matrix; s is not modified.
func (t ReciprocalTransform) Transform(s *matrix.Dense) (*matrix.Dense, error) {
	return t.TransformContext(context.Background(), s)
}

// TransformContext is Transform with cooperative cancellation, checked after
// the row and column maxima and inside both rank passes, at least once per
// checkRowStride columns or rows.
func (t ReciprocalTransform) TransformContext(ctx context.Context, s *matrix.Dense) (*matrix.Dense, error) {
	rows, cols := s.Rows(), s.Cols()
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("reciprocal: empty matrix %d×%d", rows, cols)
	}
	rowMaxes, _ := s.RowMax() // max over targets for each source
	colMaxes, _ := s.ColMax() // max over sources for each target
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	if !t.WithRanking {
		// RInf-wr averages the raw preferences. Expanding the definition,
		// (p_st + p_ts)/2 = S(u, v) − (rowMax(u) + colMax(v))/2 + 1, which
		// one pass computes without materializing either preference matrix
		// — the variant's whole point is this cost reduction.
		out := s.Clone()
		halfCol := make([]float64, cols)
		for j, v := range colMaxes {
			halfCol[j] = v / 2
		}
		halfRow := make([]float64, rows)
		for i, v := range rowMaxes {
			halfRow[i] = v/2 - 1 // fold the +1 into the row pass
		}
		if err := out.SubRowVector(halfCol); err != nil {
			return nil, err
		}
		if err := out.SubColVector(halfRow); err != nil {
			return nil, err
		}
		return out, nil
	}

	// R_ts: every column of P_ts(v, u) = S(u, v) − rowMax(u) + 1 ranked. The
	// ranking primitive wants contiguous values and a column of s is strided,
	// so each tile gathers colGatherTile columns' preferences into pooled
	// scratch — one cache line of every row per tile, no transposed copy of
	// s — ranks them there and writes the ranks back the same way.
	colRank := matrix.New(rows, cols)
	if err := forTiles(ctx, cols, rows, func(j0, j1 int, order []int32) {
		w := j1 - j0
		buf := matrix.GetTileBuf(w * rows)
		for i := 0; i < rows; i++ {
			b := rowMaxes[i]
			for c, v := range s.Row(i)[j0:j1] {
				buf[c*rows+i] = (v - b) + 1
			}
		}
		for c := 0; c < w; c++ {
			col := buf[c*rows : (c+1)*rows]
			matrix.OrderDesc(order, col)
			for r, i := range order {
				col[i] = float64(r + 1)
			}
		}
		for i := 0; i < rows; i++ {
			dst := colRank.Row(i)[j0:j1]
			for c := range dst {
				dst[c] = buf[c*rows+i]
			}
		}
		matrix.PutTileBuf(buf)
	}); err != nil {
		return nil, err
	}

	// R_st: every row of P_st(u, v) = S(u, v) − colMax(v) + 1 ranked, each
	// row's preferences built into the row they are ranked in, and the row of
	// the reciprocal matrix −(R_st + R_ts)/2 written while both are in cache.
	rowRank := matrix.New(rows, cols)
	out := matrix.New(rows, cols)
	if err := forTiles(ctx, rows, cols, func(i0, i1 int, order []int32) {
		for i := i0; i < i1; i++ {
			rr := rowRank.Row(i)
			preference(rr, s.Row(i), colMaxes)
			matrix.OrderDesc(order, rr)
			for r, j := range order {
				rr[j] = float64(r + 1)
			}
			cr, dst := colRank.Row(i), out.Row(i)
			for j := range dst {
				dst[j] = -(rr[j] + cr[j]) / 2
			}
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// forTiles runs fn(lo, hi, order) over [0, items) in tiles of colGatherTile
// items on the package pool, order being n positions of pooled ranking
// scratch the tile owns. ParallelRowsCtx polls ctx once per 64 tiles, so
// each tile polls as well to keep the bound at checkRowStride items.
func forTiles(ctx context.Context, items, n int, fn func(lo, hi int, order []int32)) error {
	tiles := (items + colGatherTile - 1) / colGatherTile
	return matrix.ParallelRowsCtx(ctx, tiles, func(t int) {
		lo := t * colGatherTile
		if lo%checkRowStride == 0 && ctxErr(ctx) != nil {
			return
		}
		buf := orderScratch.Get().(*[]int32)
		if cap(*buf) < n {
			*buf = make([]int32, n)
		}
		fn(lo, min(lo+colGatherTile, items), (*buf)[:n])
		orderScratch.Put(buf)
	})
}

// orderScratch pools forTiles' ranking scratch. Allocated per tile, the
// small buffers land in the spans the previous call's matrices freed and
// split them, so the next n×m matrix needs fresh pages: peak RSS on a
// matcher loop rose by about one matrix.
var orderScratch = sync.Pool{New: func() any { return new([]int32) }}

// preference writes dst[j] = (src[j] − best[j]) + 1. The subtraction and the
// addition are two rounded operations on purpose: folding them into
// src − (best − 1) changes low bits, and the structural ties of the rank
// transform — every cell attaining its column maximum has preference exactly
// 1 — depend on them.
func preference(dst, src, best []float64) {
	for j, b := range best[:len(dst)] {
		dst[j] = (src[j] - b) + 1
	}
}

// ExtraBytes counts the rank matrices in both directions and the reciprocal
// matrix — the memory overhead the paper attributes to RInf's "computation
// of similarity, preference, and ranking matrices" — and the row/column max
// value+index vectors live throughout, per the package accounting rule.
func (t ReciprocalTransform) ExtraBytes(rows, cols int) int64 {
	if t.WithRanking {
		// Peak: the row ranks, the column ranks and the result live
		// together during the row pass.
		return 3*matBytes(rows, cols) + int64(rows+cols)*16
	}
	// The no-ranking variant needs only the single combined matrix plus the
	// max vectors and the two halved-vector scratches.
	return matBytes(rows, cols) + int64(rows+cols)*24
}

// NewRInf returns the full RInf algorithm: reciprocal preferences with rank
// conversion, then greedy matching. Time O(n² lg n), space O(n²) with a
// higher constant than CSLS.
func NewRInf() *Composite {
	return NewComposite(ReciprocalTransform{WithRanking: true}, GreedyDecider{}, "RInf")
}

// NewRInfWR returns the RInf-wr variant (without the ranking process),
// trading a small accuracy drop for far less time and memory.
func NewRInfWR() *Composite {
	return NewComposite(ReciprocalTransform{WithRanking: false}, GreedyDecider{}, "RInf-wr")
}
