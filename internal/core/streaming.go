package core

import (
	"context"
	"fmt"
	"time"

	"entmatcher/internal/matrix"
)

// Streaming matchers: the fused-consumer counterparts of DInf, CSLS and the
// mini-batch Sinkhorn matcher. They read ctx.Stream (a tile source computing
// scores on the fly from the embedding tables) instead of ctx.S, folding
// each tile into O(rows + cols·k) running state, so a match never allocates
// the |src|×|tgt| matrix. Results are the same pairs with the same
// tie-breaking as the dense algorithms — the consumers share the dense
// scans' selection logic and visit scores in the same order — which the
// golden equivalence tests in streaming_test.go pin down.

// ErrNoStream is returned when a streaming matcher runs on a context without
// a tile source.
var ErrNoStream = fmt.Errorf("core: context has no similarity stream")

// streamOf extracts the run's tile source, accepting a dense matrix as a
// degenerate tile source so streaming matchers also work on dense runs.
func streamOf(ctx *Context) (matrix.TileSource, error) {
	if ctx == nil {
		return nil, ErrNoMatrix
	}
	if ctx.Stream != nil {
		return ctx.Stream, nil
	}
	if ctx.S != nil {
		return &matrix.DenseTileSource{M: ctx.S}, nil
	}
	return nil, ErrNoStream
}

// assemblePairs converts a completed running argmax into matched pairs,
// reporting rows whose best column is a dummy as abstained — the exact loop
// of GreedyDecider.Decide, including its abstention on degenerate rows whose
// running argmax never advanced past the initial (−Inf, −1) state (all
// streamed scores NaN or −Inf).
func assemblePairs(vals []float64, idx []int, realCols int) (pairs []Pair, abstained []int) {
	pairs = make([]Pair, 0, len(idx))
	for i, j := range idx {
		if j < 0 || j >= realCols {
			abstained = append(abstained, i)
			continue
		}
		pairs = append(pairs, Pair{Source: i, Target: j, Score: vals[i]})
	}
	return pairs, abstained
}

// DInfStream is DInf (raw scores + greedy argmax) running on the tiled
// streaming engine: one pass over the tiles with a fused per-row running
// argmax. Time is the similarity computation itself; extra memory is
// O(rows) accumulator state plus one tile buffer.
type DInfStream struct{}

// NewDInfStream returns the streaming DInf matcher.
func NewDInfStream() *DInfStream { return &DInfStream{} }

// Name returns "DInf" — the algorithm is DInf; only the engine differs.
func (*DInfStream) Name() string { return "DInf" }

// Match streams the score tiles through a running argmax.
func (m *DInfStream) Match(ctx *Context) (*Result, error) {
	st, err := streamOf(ctx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cc := ctx.Cancellation()
	rows, cols := st.Dims()
	if cols == 0 {
		return nil, fmt.Errorf("greedy: matrix has no columns")
	}
	best := matrix.NewRunningArgmax(rows)
	if err := st.StreamTiles(cc, best); err != nil {
		return nil, err
	}
	pairs, abstained := assemblePairs(best.Vals, best.Idx, cols-ctx.NumDummies)
	return &Result{
		Matcher:    m.Name(),
		Pairs:      pairs,
		Abstained:  abstained,
		Elapsed:    time.Since(start),
		ExtraBytes: best.SizeBytes() + int64(matrix.DefaultTileRows*matrix.DefaultTileCols)*8,
	}, nil
}

// cslsArgmax is the fused second-pass consumer of streaming CSLS: it applies
// the CSLS rescaling 2·S(u,v) − φ_s(u) − φ_t(v) to each streamed score and
// keeps a running argmax of the transformed values. The arithmetic order
// (double, subtract φ_s, subtract φ_t) matches the dense transform's sweep
// order. Like the matrix consumers it folds a tile's rows in parallel, each
// row owning its argmax slot.
type cslsArgmax struct {
	phiS, phiT []float64
	best       *matrix.RunningArgmax
}

func (c *cslsArgmax) ConsumeTile(rowOff, colOff int, tile *matrix.Dense) {
	phiT := c.phiT[colOff : colOff+tile.Cols()]
	// Background never cancels: StreamTiles checks the pass's context between tiles.
	_ = matrix.ParallelRowsCtx(context.Background(), tile.Rows(), func(r int) {
		ps := c.phiS[rowOff+r]
		best, bi := c.best.Vals[rowOff+r], c.best.Idx[rowOff+r]
		for cI, v := range tile.Row(r) {
			tv := v*2 - ps - phiT[cI]
			if tv > best {
				best, bi = tv, colOff+cI
			}
		}
		c.best.Vals[rowOff+r], c.best.Idx[rowOff+r] = best, bi
	})
}

// CSLSStream is CSLS + greedy running on the tiled streaming engine in two
// passes: pass one folds the φ statistics (per-row and per-column top-K
// means) across tiles; pass two re-streams the tiles, rescales each score on
// the fly and keeps a running argmax. Peak memory is O(rows·K + cols·K)
// accumulator state instead of the dense path's extra full matrix; the cost
// is computing the similarity scores twice, which is what makes CSLS
// feasible at scales where its dense rescaled copy alone would not fit.
type CSLSStream struct {
	// K is the φ neighborhood size (the paper's best 1-to-1 value is 1).
	K int
}

// NewCSLSStream returns the streaming CSLS matcher.
func NewCSLSStream(k int) *CSLSStream { return &CSLSStream{K: k} }

// Name returns "CSLS" — the algorithm is CSLS; only the engine differs.
func (*CSLSStream) Name() string { return "CSLS" }

// phi is pass one: the φ statistics, folded by a row and a column top-K
// accumulator whose pooled heap backing is released on every path (Means
// returns fresh slices). accBytes is the two accumulators' footprint. The
// column accumulator clamps K to the row count exactly as Dense.ColTopKMeans
// does.
func (m *CSLSStream) phi(cc context.Context, st matrix.TileSource) (phiS, phiT []float64, accBytes int64, err error) {
	rows, cols := st.Dims()
	rowAcc := matrix.NewRunningTopK(rows, m.K)
	defer rowAcc.Release()
	colAcc := matrix.NewColTopKAcc(cols, min(m.K, rows))
	defer colAcc.Release()
	if err := st.StreamTiles(cc, rowAcc, colAcc); err != nil {
		return nil, nil, 0, err
	}
	return rowAcc.Means(), colAcc.Means(), rowAcc.SizeBytes() + colAcc.SizeBytes(), nil
}

// Match runs the two fused passes.
func (m *CSLSStream) Match(ctx *Context) (*Result, error) {
	st, err := streamOf(ctx)
	if err != nil {
		return nil, err
	}
	if m.K < 1 {
		return nil, fmt.Errorf("csls: K must be positive, got %d", m.K)
	}
	start := time.Now()
	cc := ctx.Cancellation()
	rows, cols := st.Dims()
	if cols == 0 {
		return nil, fmt.Errorf("greedy: matrix has no columns")
	}
	phiS, phiT, accBytes, err := m.phi(cc, st)
	if err != nil {
		return nil, err
	}
	extra := accBytes + int64(rows+cols)*8

	// Pass 2: fused rescale + argmax.
	best := matrix.NewRunningArgmax(rows)
	if err := st.StreamTiles(cc, &cslsArgmax{phiS: phiS, phiT: phiT, best: best}); err != nil {
		return nil, err
	}
	pairs, abstained := assemblePairs(best.Vals, best.Idx, cols-ctx.NumDummies)
	return &Result{
		Matcher:    m.Name(),
		Pairs:      pairs,
		Abstained:  abstained,
		Elapsed:    time.Since(start),
		ExtraBytes: extra + best.SizeBytes() + int64(matrix.DefaultTileRows*matrix.DefaultTileCols)*8,
	}, nil
}
