package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"entmatcher/internal/matrix"
)

// RInfSparse is the reciprocal-preference matcher (RInf) over candidate
// graphs — the progressive blocking of the paper's Table 6: each entity's
// preferences are ranked only within its top-C block, in both directions,
// and the two ranks averaged with a worst-rank penalty (C+1) for a pair
// outside the other side's block. The rank joins run on arrays aligned with
// the graph's edges, so working memory is O((rows+cols)·C) and no n×n array
// is ever held. NewRInfPB labels the body "RInf-pb" (on a dense run it reads
// the matrix as a tile source), NewRInfSparse "RInf-sparse".
//
// Both direction's statistics come from one BuildCandGraphs call — a single
// streaming pass on a cold source, no pass at all when the run's memo
// (matrix.GraphMemo) already holds both graphs: the forward graph's row heads
// are the exact row maxima and the reverse graph's row heads the exact column
// maxima (a top-C head is the true maximum for any C >= 1), which is all the
// preference construction p(u,v) = S(u,v) − max S + 1 needs. Both rankings
// break preference ties by ascending entity id, the dense rank transform's
// tie-break, so at C >= max(rows, cols) the result is dense RInf's.
type RInfSparse struct {
	// C is the per-entity candidate budget (the progressive-blocking block
	// size). The absence penalty is C+1, unclamped.
	C  int
	pb bool // labelled "RInf-pb"
}

// Name returns "RInf-pb" for a NewRInfPB body, "RInf-sparse" otherwise.
func (m *RInfSparse) Name() string {
	if m.pb {
		return "RInf-pb"
	}
	return "RInf-sparse"
}

// Match runs sparse reciprocal matching.
func (m *RInfSparse) Match(ctx *Context) (*Result, error) {
	if ctx == nil {
		return nil, ErrNoMatrix
	}
	if m.C < 1 {
		return nil, fmt.Errorf("%s: candidate budget must be positive, got %d", m.Name(), m.C)
	}
	start := time.Now()
	cc := ctx.Cancellation()
	src, rows, cols, err := sparseSource(ctx)
	if err != nil {
		return nil, err
	}
	fwd, rev, err := matrix.BuildCandGraphs(cc, src, m.C, m.C)
	if err != nil {
		return nil, err
	}
	rowMaxes := fwd.RowHeadScores() // max over targets for each source
	colMaxes := rev.RowHeadScores() // max over sources for each target

	// Forward ranks, aligned with the fwd CSR positions: rankST[p] is the
	// 1-based rank of edge p's column within its row's preference order
	// p_st = v − colMax + 1 (descending, ties by ascending column id).
	rankST := make([]int32, fwd.NNZ())
	if err := forRankTiles(cc, rows, 0, func(lo, hi int, sc *rankScratch) {
		for i := lo; i < hi; i++ {
			cand, scores := fwd.Row(i)
			pref, order := sc.block(len(cand))
			for x, j := range cand {
				pref[x] = scores[x] - colMaxes[j] + 1
			}
			matrix.OrderDescByKey(order, pref, cand)
			ranks := rankST[fwd.RowOffset(i):]
			for r, x := range order {
				ranks[x] = int32(r + 1)
			}
		}
	}); err != nil {
		return nil, err
	}

	// Reverse ranks delivered onto the forward edges: rankTS[p] is the
	// 1-based rank of edge p's row within its column's preference order
	// p_ts = v − rowMax + 1, or 0 when the row is outside the column's
	// reverse block. The join walks the forward graph's transpose view
	// column by column against the reverse graph, scattering ranks through
	// the worker's rows-length scratch, wiped per column — O(nnz) total, no
	// hashing. Columns write disjoint edges, so they run in parallel.
	rankTS := make([]int32, fwd.NNZ())
	csc := fwd.CSCView()
	if err := forRankTiles(cc, cols, rows, func(lo, hi int, sc *rankScratch) {
		for j := lo; j < hi; j++ {
			cand, scores := rev.Row(j) // candidate source rows of column j
			pref, order := sc.block(len(cand))
			for x, i := range cand {
				pref[x] = scores[x] - rowMaxes[i] + 1
			}
			matrix.OrderDescByKey(order, pref, cand)
			for r, x := range order {
				sc.scatter[cand[x]] = int32(r + 1)
			}
			for x := csc.ColPtr[j]; x < csc.ColPtr[j+1]; x++ {
				rankTS[csc.Pos[x]] = sc.scatter[csc.RowIdx[x]]
			}
			for _, i := range cand {
				sc.scatter[i] = 0
			}
		}
	}); err != nil {
		return nil, err
	}

	// Combine: average rank with the worst-rank penalty for absences,
	// iterating candidates in top-k order; equal averages go to the smaller
	// column, the greedy first-occurrence rule of the full RInf.
	penalty := float64(m.C + 1)
	realCols := cols - ctx.NumDummies
	rowPairs := make([]Pair, rows)
	if err := matrix.ParallelRowsCtx(cc, rows, func(i int) {
		cand, _ := fwd.Row(i)
		p := fwd.RowOffset(i)
		st, ts := rankST[p:p+len(cand)], rankTS[p:p+len(cand)]
		best := math.Inf(1)
		bestJ := -1
		for x := range cand {
			j := int(cand[x])
			rst := float64(st[x])
			r2 := penalty
			if rts := ts[x]; rts != 0 {
				r2 = float64(rts)
			}
			avg := (rst + r2) / 2
			if avg < best || (avg == best && bestJ >= 0 && j < bestJ) {
				best = avg
				bestJ = j
			}
		}
		rowPairs[i] = rowPair(i, bestJ, realCols, -best)
	}); err != nil {
		return nil, err
	}
	pairs, abstained := collectRowPairs(rowPairs)
	return &Result{
		Matcher:   m.Name(),
		Pairs:     pairs,
		Abstained: abstained,
		Elapsed:   time.Since(start),
		// Both graphs, the transpose view with its position join, the two
		// rank arrays, the max vectors and one per-column scatter per worker
		// are live together at peak.
		ExtraBytes: fwd.SizeBytes() + rev.SizeBytes() + int64(fwd.NNZ())*16 +
			int64(cols+1)*8 + int64(rows+cols)*8 + int64(runtime.GOMAXPROCS(0))*int64(rows)*4 +
			int64(matrix.DefaultTileRows*matrix.DefaultTileCols)*8,
	}, nil
}

// NewRInfSparse returns the sparse reciprocal matcher with candidate budget
// (block size) c.
func NewRInfSparse(c int) *RInfSparse { return &RInfSparse{C: c} }

// NewRInfPB returns the progressive-blocking RInf variant with block size c:
// the RInfSparse body under the paper's label.
func NewRInfPB(c int) *RInfSparse { return &RInfSparse{C: c, pb: true} }

// rankScratch is one worker's scratch for RInfSparse's rank joins: a block's
// preferences and order, and the reverse join's scatter, all zero between
// columns.
type rankScratch struct {
	pref    []float64
	order   []int32
	scatter []int32
}

// block returns the preference and order scratch for a block of n entries.
func (sc *rankScratch) block(n int) ([]float64, []int32) {
	sc.pref = slices.Grow(sc.pref[:0], n)[:n]
	sc.order = slices.Grow(sc.order[:0], n)[:n]
	return sc.pref, sc.order
}

// rankScratchPool keeps one rankScratch per worker across Match calls.
var rankScratchPool = sync.Pool{New: func() any { return new(rankScratch) }}

// rankTile is how many rows (columns) a forRankTiles tile ranks: small, so
// that a graph of a few hundred rows already spreads over the workers.
const rankTile = 8

// forRankTiles runs fn(lo, hi, sc) over [0, n) in tiles of rankTile items on
// the package pool, sc being pooled scratch whose scatter holds at least
// scatter zeros. ParallelRowsCtx polls ctx once per 64 tiles, so a tile
// polls as well to keep the bound at checkRowStride items.
func forRankTiles(ctx context.Context, n, scatter int, fn func(lo, hi int, sc *rankScratch)) error {
	return matrix.ParallelRowsCtx(ctx, (n+rankTile-1)/rankTile, func(t int) {
		lo := t * rankTile
		if lo%checkRowStride == 0 && ctxErr(ctx) != nil {
			return
		}
		sc := rankScratchPool.Get().(*rankScratch)
		if len(sc.scatter) < scatter {
			sc.scatter = make([]int32, scatter)
		}
		fn(lo, min(lo+rankTile, n), sc)
		rankScratchPool.Put(sc)
	})
}
