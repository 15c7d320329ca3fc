package matrix

import (
	"context"
	"fmt"
	"math"
)

// negInf is the identity element of the running argmax.
var negInf = math.Inf(-1)

// This file defines the streaming-tile contract of the similarity engine.
//
// A TileSource produces the |src|×|tgt| score matrix as a sequence of
// row×col tiles without ever materializing the whole matrix; TileConsumers
// fold each tile into O(rows + cols·k) running state (argmax, bounded top-k,
// column top-k statistics). Together they drop the matching stage's memory
// from O(n·m) to O(tile + n·k), which is what opens the paper's DWY100K
// (100K×100K ≈ 80 GB dense) setting on commodity machines.
//
// Determinism contract: a TileSource must emit tiles in row-major block
// order — row blocks in ascending row offset, and within a row block, col
// blocks in ascending column offset — and consumers are invoked
// sequentially, one tile at a time. Inside one ConsumeTile the consumers
// below fold on all cores, but over disjoint state: row consumers split the
// tile's rows, ColTopKAcc splits its columns into contiguous stripes. Every
// row heap therefore still observes its scores in ascending column order and
// every column heap in ascending row order, exactly the orders the dense
// one-shot scans use, so heap layouts, selections and tie-breaking match the
// dense path at any GOMAXPROCS.

// TileConsumer folds streamed score tiles into running state. ConsumeTile is
// called once per tile with the tile's global row/column offsets; tile is a
// scratch buffer reused across calls and must not be retained. A TileSource
// must call it from a goroutine that is not a worker-pool task: the in-tree
// consumers wait on pool chunks of their own (see pool.go).
type TileConsumer interface {
	ConsumeTile(rowOff, colOff int, tile *Dense)
}

// TileSource produces a score matrix tile by tile. Implementations:
// sim.Stream (scores computed on the fly from embedding tables) and
// DenseTileSource (an existing matrix re-sliced into tiles, mainly for
// equivalence testing and mixed pipelines).
type TileSource interface {
	// Dims returns the full score-matrix shape the tiles cover.
	Dims() (rows, cols int)
	// StreamTiles pushes every tile through each consumer in deterministic
	// row-major block order, checking ctx between tiles. On a non-nil error
	// the consumers' state is partial and must be discarded.
	StreamTiles(ctx context.Context, consumers ...TileConsumer) error
	// Block materializes an arbitrary sub-matrix indexed by row and column
	// ID lists (the mini-batch shape blocked matchers need).
	Block(ctx context.Context, rowIDs, colIDs []int) (*Dense, error)
}

// DefaultTileRows and DefaultTileCols are the default tile shape:
// 256×512 float64 = 1 MiB per tile, sized so a tile plus the target-side
// embedding block it is computed from stay resident in a per-core L2 cache.
const (
	DefaultTileRows = 256
	DefaultTileCols = 512
)

// DenseTileSource adapts an already-materialized matrix to the TileSource
// interface by re-slicing it into tiles. It exists so fused consumers can be
// validated bit-for-bit against one-shot scans of the same matrix, and so
// streaming matchers can run on dense inputs.
type DenseTileSource struct {
	M *Dense
	// TileRows/TileCols override the tile shape; zero means the defaults.
	TileRows, TileCols int
}

// Dims returns the underlying matrix shape.
func (s *DenseTileSource) Dims() (int, int) { return s.M.rows, s.M.cols }

// StreamTiles copies the matrix tile by tile through the consumers.
func (s *DenseTileSource) StreamTiles(ctx context.Context, consumers ...TileConsumer) error {
	if ctx == nil {
		ctx = context.Background()
	}
	tr, tc := s.TileRows, s.TileCols
	if tr <= 0 {
		tr = DefaultTileRows
	}
	if tc <= 0 {
		tc = DefaultTileCols
	}
	buf := getTileBuf(tr * tc)
	defer putTileBuf(buf)
	tile := &Dense{} // one header reused across tiles; consumers must not retain it
	for rb := 0; rb < s.M.rows; rb += tr {
		rn := min(tr, s.M.rows-rb)
		for cb := 0; cb < s.M.cols; cb += tc {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			cn := min(tc, s.M.cols-cb)
			*tile = Dense{rows: rn, cols: cn, data: buf[:rn*cn]}
			for r := 0; r < rn; r++ {
				copy(tile.Row(r), s.M.data[(rb+r)*s.M.cols+cb:(rb+r)*s.M.cols+cb+cn])
			}
			for _, c := range consumers {
				c.ConsumeTile(rb, cb, tile)
			}
		}
	}
	return nil
}

// Block gathers the sub-matrix at the ID cross product.
func (s *DenseTileSource) Block(ctx context.Context, rowIDs, colIDs []int) (*Dense, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	out := New(len(rowIDs), len(colIDs))
	for x, i := range rowIDs {
		if i < 0 || i >= s.M.rows {
			return nil, fmt.Errorf("%w: block row %d of %d", ErrShape, i, s.M.rows)
		}
		srow := s.M.Row(i)
		drow := out.Row(x)
		for y, j := range colIDs {
			if j < 0 || j >= s.M.cols {
				return nil, fmt.Errorf("%w: block col %d of %d", ErrShape, j, s.M.cols)
			}
			drow[y] = srow[j]
		}
	}
	return out, nil
}

// ColPadder is implemented by tile sources that can append virtual
// constant-score columns natively (sim.Stream constant-fills the dummy
// region of each tile as it is produced).
type ColPadder interface {
	PadCols(n int, score float64) TileSource
}

// PadCols returns a view of src with n extra constant-score columns appended
// after the real ones — the streaming equivalent of appending dummy columns
// to a dense matrix. Sources implementing ColPadder pad natively; anything
// else is wrapped generically. n <= 0 returns src unchanged.
func PadCols(src TileSource, n int, score float64) TileSource {
	if n <= 0 {
		return src
	}
	if p, ok := src.(ColPadder); ok {
		return p.PadCols(n, score)
	}
	return &paddedSource{inner: src, n: n, score: score}
}

// paddedSource appends n constant columns to an arbitrary TileSource. The
// dummy tiles for a row block are emitted after the block's real tiles, so
// the padded stream still satisfies the row-major determinism contract with
// the dummies as trailing columns — exactly where a dense AddDummyColumns
// would put them.
type paddedSource struct {
	inner TileSource
	n     int
	score float64
}

// Dims returns the padded shape.
func (p *paddedSource) Dims() (int, int) {
	r, c := p.inner.Dims()
	return r, c + p.n
}

// StreamTiles forwards the inner tiles and splices the constant dummy tiles
// in at each row-block boundary.
func (p *paddedSource) StreamTiles(ctx context.Context, consumers ...TileConsumer) error {
	if ctx == nil {
		ctx = context.Background()
	}
	rows, cols := p.inner.Dims()
	fw := &padForwarder{pad: p, cols: cols, consumers: consumers}
	if cols == 0 {
		// Degenerate inner source: nothing real to stream, emit the dummy
		// columns directly.
		for rb := 0; rb < rows; rb += DefaultTileRows {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			fw.emitDummies(rb, min(DefaultTileRows, rows-rb))
		}
		return nil
	}
	return p.inner.StreamTiles(ctx, fw)
}

// Block gathers the padded sub-matrix: real columns from the inner source,
// dummy columns at the constant score.
func (p *paddedSource) Block(ctx context.Context, rowIDs, colIDs []int) (*Dense, error) {
	_, cols := p.inner.Dims()
	innerPos := make([]int, 0, len(colIDs))
	innerCols := make([]int, 0, len(colIDs))
	for y, j := range colIDs {
		if j < 0 || j >= cols+p.n {
			return nil, fmt.Errorf("%w: block col %d of %d", ErrShape, j, cols+p.n)
		}
		if j < cols {
			innerPos = append(innerPos, y)
			innerCols = append(innerCols, j)
		}
	}
	out := New(len(rowIDs), len(colIDs))
	for i := range out.data {
		out.data[i] = p.score
	}
	if len(innerCols) > 0 {
		sub, err := p.inner.Block(ctx, rowIDs, innerCols)
		if err != nil {
			return nil, err
		}
		for x := range rowIDs {
			srow := sub.Row(x)
			drow := out.Row(x)
			for k, y := range innerPos {
				drow[y] = srow[k]
			}
		}
	}
	return out, nil
}

// padForwarder relays real tiles to the consumers and emits the dummy tiles
// once a row block's last real tile has passed through.
type padForwarder struct {
	pad       *paddedSource
	cols      int
	consumers []TileConsumer
}

// ConsumeTile forwards the tile and, at a row-block boundary, the dummies.
func (f *padForwarder) ConsumeTile(rowOff, colOff int, tile *Dense) {
	for _, c := range f.consumers {
		c.ConsumeTile(rowOff, colOff, tile)
	}
	if colOff+tile.cols >= f.cols {
		f.emitDummies(rowOff, tile.rows)
	}
}

// emitDummies streams the n constant columns for rows [rowOff, rowOff+rn).
func (f *padForwarder) emitDummies(rowOff, rn int) {
	for cb := 0; cb < f.pad.n; cb += DefaultTileCols {
		cn := min(DefaultTileCols, f.pad.n-cb)
		buf := getTileBuf(rn * cn)
		for i := range buf {
			buf[i] = f.pad.score
		}
		tile := &Dense{rows: rn, cols: cn, data: buf}
		for _, c := range f.consumers {
			c.ConsumeTile(rowOff, f.cols+cb, tile)
		}
		putTileBuf(buf)
	}
}

// RunningArgmax is the fused greedy consumer: per-row maximum value and the
// column index of its first occurrence, folded across tiles. After a
// complete stream, Vals/Idx equal exactly what Dense.RowMax returns for the
// same scores (strict-greater updates + ascending column visitation keep the
// first maximum).
type RunningArgmax struct {
	Vals []float64
	Idx  []int
}

// NewRunningArgmax returns an accumulator for the given row count, with
// every row at (-Inf, -1) — the value RowMax yields for width-zero rows.
func NewRunningArgmax(rows int) *RunningArgmax {
	r := &RunningArgmax{Vals: make([]float64, rows), Idx: make([]int, rows)}
	for i := range r.Vals {
		r.Vals[i] = negInf
		r.Idx[i] = -1
	}
	return r
}

// ConsumeTile folds one tile into the running argmax.
func (a *RunningArgmax) ConsumeTile(rowOff, colOff int, tile *Dense) {
	parallelRows(tile.rows, func(r int) {
		best, bi := a.Vals[rowOff+r], a.Idx[rowOff+r]
		for c, v := range tile.Row(r) {
			if v > best {
				best, bi = v, colOff+c
			}
		}
		a.Vals[rowOff+r], a.Idx[rowOff+r] = best, bi
	})
}

// SizeBytes is the accumulator's heap footprint (the O(n) streaming state).
func (a *RunningArgmax) SizeBytes() int64 { return int64(len(a.Vals)) * 16 }

// RunningTopK is the fused bounded-candidate consumer: per-row top-k values
// and column indices folded across tiles in O(rows·k) memory. Selection and
// tie-breaking are identical to Dense.RowTopK because both funnel every
// candidate through the same heap offer in the same column order.
type RunningTopK struct {
	k     int
	heaps []minHeap
	// backingVals/backingIdx are pooled flat arrays sliced into k-capacity
	// heap storage, so construction costs O(1) allocations instead of
	// O(rows). Returned to the pool by Release.
	backingVals []float64
	backingIdx  []int
}

// NewRunningTopK returns an accumulator holding the k best candidates per
// row. k is clamped to at least 0; rows with fewer than k scored columns
// simply keep them all. Call Release once the results derived from
// Finalize/Means are no longer referenced to recycle the heap storage.
func NewRunningTopK(rows, k int) *RunningTopK {
	if k < 0 {
		k = 0
	}
	t := &RunningTopK{k: k, heaps: make([]minHeap, rows)}
	if k > 0 && rows > 0 {
		t.backingVals = getHeapVals(rows * k)
		t.backingIdx = getHeapIdx(rows * k)
		for i := range t.heaps {
			t.heaps[i] = minHeap{
				vals: t.backingVals[i*k : i*k : (i+1)*k],
				idx:  t.backingIdx[i*k : i*k : (i+1)*k],
			}
		}
	}
	return t
}

// Release returns the pooled heap storage. The accumulator — and any TopK
// slices returned by Finalize, which alias the storage — must not be used
// afterwards. Callers that retain Finalize results past the accumulator's
// lifetime must copy them first (or skip Release).
func (t *RunningTopK) Release() {
	if t.backingVals != nil {
		putHeapVals(t.backingVals)
		putHeapIdx(t.backingIdx)
		t.backingVals, t.backingIdx = nil, nil
	}
	t.heaps = nil
}

// ConsumeTile folds one tile into the per-row heaps.
func (t *RunningTopK) ConsumeTile(rowOff, colOff int, tile *Dense) {
	if t.k == 0 {
		return
	}
	parallelRows(tile.rows, func(r int) {
		t.heaps[rowOff+r].offerRun(tile.Row(r), colOff, t.k)
	})
}

// Finalize returns each row's candidates in descending value order (ties by
// ascending column), matching Dense.RowTopK. The accumulator must not be
// fed further tiles afterwards.
func (t *RunningTopK) Finalize() []TopK {
	out := make([]TopK, len(t.heaps))
	parallelRows(len(t.heaps), func(i int) {
		out[i] = t.heaps[i].finalize()
	})
	return out
}

// Means returns each row's top-k mean (the CSLS φ_s statistic), averaging in
// descending-sorted order exactly as Dense.RowTopKMeans does. Like Finalize,
// it consumes the accumulator.
func (t *RunningTopK) Means() []float64 { return TopKMeans(t.Finalize()) }

// SizeBytes is the accumulator's heap footprint: O(rows·k).
func (t *RunningTopK) SizeBytes() int64 { return int64(len(t.heaps)) * int64(t.k) * 16 }

// ColTopKAcc is the fused column-statistic consumer: per-column top-k heaps
// folded across tiles, yielding the CSLS φ_t statistic in O(cols·k) memory.
// Because tiles arrive in ascending row order, each column's heap sees rows
// in the same order as Dense.ColTopKMeans' scan and the means agree
// bit-for-bit.
type ColTopKAcc struct {
	k     int
	heaps []minHeap
	// thr[j] is heaps[j].threshold(k), the gate offerCols reads; it is the
	// tail of backingVals.
	thr []float64
	// Pooled flat heap storage, as in RunningTopK.
	backingVals []float64
	backingIdx  []int
}

// NewColTopKAcc returns an accumulator for the given column count, keeping
// the k best rows per column. Pass k already clamped to the row count for
// exact Dense.ColTopKMeans equivalence. Call Release when done to recycle
// the heap storage.
func NewColTopKAcc(cols, k int) *ColTopKAcc {
	if k < 0 {
		k = 0
	}
	a := &ColTopKAcc{k: k, heaps: make([]minHeap, cols)}
	if k > 0 && cols > 0 {
		a.backingVals = getHeapVals(cols*k + cols)
		a.backingIdx = getHeapIdx(cols * k)
		a.thr = a.backingVals[cols*k:]
		for j := range a.heaps {
			a.heaps[j] = minHeap{
				vals: a.backingVals[j*k : j*k : (j+1)*k],
				idx:  a.backingIdx[j*k : j*k : (j+1)*k],
			}
			a.thr[j] = gateOpen
		}
	}
	return a
}

// Release returns the pooled heap storage; the accumulator must not be used
// afterwards.
func (a *ColTopKAcc) Release() {
	if a.backingVals != nil {
		putHeapVals(a.backingVals)
		putHeapIdx(a.backingIdx)
		a.backingVals, a.backingIdx, a.thr = nil, nil, nil
	}
	a.heaps = nil
}

// ConsumeTile folds one tile into the per-column heaps, one contiguous
// column stripe per worker; each stripe walks the tile's rows in ascending
// order.
func (a *ColTopKAcc) ConsumeTile(rowOff, colOff int, tile *Dense) {
	if a.k == 0 {
		return
	}
	parallelChunks(tile.cols, func(lo, hi int) {
		heaps, thr := a.heaps[colOff+lo:colOff+hi], a.thr[colOff+lo:colOff+hi]
		for r := 0; r < tile.rows; r++ {
			offerCols(heaps, thr, tile.Row(r)[lo:hi], rowOff+r, a.k)
		}
	})
}

// Means returns the per-column top-k means in heap-array order — the same
// summation Dense.ColTopKMeans performs.
func (a *ColTopKAcc) Means() []float64 {
	out := make([]float64, len(a.heaps))
	for j := range a.heaps {
		out[j] = a.heaps[j].heapMean()
	}
	return out
}

// SizeBytes is the accumulator's heap footprint: O(cols·k), thresholds
// included.
func (a *ColTopKAcc) SizeBytes() int64 {
	return int64(len(a.heaps))*int64(a.k)*16 + int64(len(a.thr))*8
}
