package core

import (
	"fmt"

	"entmatcher/internal/matrix"
)

// colGatherTile is how many columns GaleShapleyDecider gathers per pass over
// the rows when it builds the column rank tables: 8 doubles are one cache
// line, so a tile reads every line of s it touches exactly once.
const colGatherTile = 8

// GaleShapleyDecider computes a stable matching between rows and columns
// (the paper's § 3.6, SMat): no row and column would both prefer each other
// over their assigned partners. Rows propose in descending score order;
// columns hold the best proposal seen so far, ranked by their own column
// scores (deferred acceptance, Gale & Shapley 1962).
//
// Following the reference implementations [64], [69], the decider
// materializes both full preference structures — every row's sorted column
// list and every column's rank-of-row table — which is what makes SMat the
// paper's least space-efficient algorithm.
type GaleShapleyDecider struct{}

// Name returns "gale-shapley".
func (GaleShapleyDecider) Name() string { return "gale-shapley" }

// Decide computes the row-proposing stable matching. Rows that end up
// matched to a dummy column, or unmatched because columns ran out, are
// reported as abstained.
func (GaleShapleyDecider) Decide(ctx *Context, s *matrix.Dense) ([]Pair, []int, error) {
	rows, cols := s.Rows(), s.Cols()
	if rows == 0 || cols == 0 {
		return nil, nil, fmt.Errorf("gale-shapley: empty matrix %d×%d", rows, cols)
	}
	cc := ctx.Cancellation()

	// Row preference lists: row i's columns in (score desc, column asc) order
	// at rowPref[i*cols:(i+1)*cols]. One slab, not one slice per row.
	rowPref := make([]int32, rows*cols)
	if err := matrix.ParallelRowsCtx(cc, rows, func(i int) {
		matrix.OrderDesc(rowPref[i*cols:(i+1)*cols], s.Row(i))
	}); err != nil {
		return nil, nil, err
	}

	// Column rank tables: colRank[j*rows+i] = position of row i in column j's
	// preference (lower is better). The ranking primitive wants contiguous
	// values and a column of s is strided, so each worker gathers
	// colGatherTile columns at a time into pooled scratch — one cache line of
	// every row per tile, Θ(rows) scratch per worker, no transposed copy of s.
	colRank := make([]int32, cols*rows)
	tiles := (cols + colGatherTile - 1) / colGatherTile
	if err := matrix.ParallelRowsCtx(cc, tiles, func(t int) {
		j0 := t * colGatherTile
		// ParallelRowsCtx polls once per 64 items — tiles here — so poll
		// here as well to keep the bound at checkRowStride columns.
		if j0%checkRowStride == 0 && ctxErr(cc) != nil {
			return
		}
		w := min(colGatherTile, cols-j0)
		buf := matrix.GetTileBuf(w * rows)
		for i := 0; i < rows; i++ {
			for c, v := range s.Row(i)[j0 : j0+w] {
				buf[c*rows+i] = v
			}
		}
		for c := 0; c < w; c++ {
			j := j0 + c
			matrix.RanksDesc(colRank[j*rows:(j+1)*rows], buf[c*rows:(c+1)*rows])
		}
		matrix.PutTileBuf(buf)
	}); err != nil {
		return nil, nil, err
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
			// Count actual proposals: a displacement cascade performs up to
			// O(rows·cols) of them between freed-row pops without ever
			// returning to the outer loop (the displaced row keeps proposing
			// as i), so the cancellation checkpoint must live here for the
			// checkRowStride bound to hold. Pinned by
			// TestGaleShapleyCancelDuringCascade.
			proposals++
			if proposals%checkRowStride == 0 {
				if err := ctxErr(cc); err != nil {
					return nil, nil, err
				}
			}
			j := int(rowPref[i*cols+next[i]])
			next[i]++
			cur := engaged[j]
			if cur == -1 {
				engaged[j] = i
				i = -1
				break
			}
			if colRank[j*rows+i] < colRank[j*rows+cur] {
				engaged[j] = i
				i = cur // the displaced row proposes again
			}
		}
		// The loop exits either with i == -1 (accepted; any displaced row
		// kept proposing inside the loop) or with row i having exhausted
		// all columns, which leaves it unmatched — possible only when
		// rows > cols.
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
	pairs := make([]Pair, 0, rows)
	var abstained []int
	for i, j := range assigned {
		if j < 0 || j >= realCols {
			abstained = append(abstained, i)
			continue
		}
		pairs = append(pairs, Pair{Source: i, Target: j, Score: s.At(i, j)})
	}
	return pairs, abstained, nil
}

// ExtraBytes counts both materialized preference structures (2·n·m int32) —
// the dominant cost that makes SMat the least space-efficient algorithm in
// the paper's comparison — plus the deferred-acceptance bookkeeping live
// alongside them (next/free/assigned and a column's gather-and-sort scratch,
// Θ(rows) each; the engaged table, Θ(cols)), per the package accounting rule.
// The scratch is per worker and pooled; the rule counts it once.
func (GaleShapleyDecider) ExtraBytes(rows, cols int) int64 {
	return 2*int64(rows)*int64(cols)*4 + int64(rows)*32 + int64(cols)*8
}

// NewSMat returns the SMat algorithm: raw scores plus Gale-Shapley stable
// matching. Time O(n² lg n) for the preference sorting, space O(n²).
func NewSMat() *Composite {
	return NewComposite(NoneTransform{}, GaleShapleyDecider{}, "SMat")
}
