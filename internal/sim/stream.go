package sim

import (
	"context"
	"fmt"

	"entmatcher/internal/matrix"
)

// Stream is the tiled streaming similarity engine: it produces the
// |src|×|tgt| score matrix in row×col tiles computed directly from the
// embedding tables, so the dense matrix — 80 GB at the paper's DWY100K
// scale — never exists. Downstream consumers (running argmax, bounded top-k,
// CSLS φ statistics) fold each tile into O(rows + cols·k) state; see
// internal/matrix's TileSource contract for the deterministic tile order
// that makes streamed selections match the dense path's.
//
// A Stream is immutable after construction and safe for concurrent use by
// independent passes (each StreamTiles call owns its tile buffer).
type Stream struct {
	// src and tgt are the prepared tables: row-L2-normalized copies for
	// cosine (so a tile is a plain block matmul), the original tables for
	// the distance metrics. A *matrix.Dense — resident or mmapped — is read
	// in place; any other RowsReader (NewStreamOOC over snapshot slabs) is
	// read through gathered row windows, so resident memory stays O(tile)
	// no matter the table size. The table's type is the only switch.
	src, tgt matrix.RowsReader
	metric   Metric

	tileRows, tileCols int

	// dummyCols virtual constant-score columns are appended after the real
	// targets, implementing AddDummyColumns without materializing anything.
	dummyCols  int
	dummyScore float64
}

// StreamOption customizes a Stream.
type StreamOption func(*Stream)

// WithTileShape overrides the default 256×512 tile shape. Values below 1
// are ignored.
func WithTileShape(rows, cols int) StreamOption {
	return func(s *Stream) {
		if rows >= 1 {
			s.tileRows = rows
		}
		if cols >= 1 {
			s.tileCols = cols
		}
	}
}

// NewStream validates the embedding tables exactly as MatrixContext does
// (matching dimensions, non-empty, finite) and returns a streaming engine
// over them. For cosine it takes row-normalized copies up front — O((n+m)·d)
// extra memory, the only per-stream allocation that scales with the input.
func NewStream(src, tgt *matrix.Dense, metric Metric, opts ...StreamOption) (*Stream, error) {
	if src == nil || tgt == nil {
		return nil, fmt.Errorf("sim: nil embedding matrix")
	}
	st, err := newStream(src, tgt, metric, true, opts)
	if err == nil && metric == Cosine {
		st.src, st.tgt = normalizedRows(src), normalizedRows(tgt)
	}
	return st, err
}

// NewStreamPrepared returns a streaming engine over tables that are already
// prepared — for cosine, rows already L2-normalized — skipping the
// normalization pass NewStream performs. This is the snapshot-restore entry
// point: a snapshot persists the prepared tables bit-for-bit, and
// re-normalizing near-unit rows would perturb low-order bits and break the
// load-after-save ≡ fresh-preparation guarantee. Validation (shape,
// non-empty, finite) is identical to NewStream; the caller is responsible
// for the tables actually being prepared (the snapshot loader's checksums
// guarantee it for snapshot-sourced tables).
func NewStreamPrepared(src, tgt *matrix.Dense, metric Metric, opts ...StreamOption) (*Stream, error) {
	if src == nil || tgt == nil {
		return nil, fmt.Errorf("sim: nil embedding matrix")
	}
	return newStream(src, tgt, metric, true, opts)
}

// NewStreamOOC returns an out-of-core streaming engine over prepared tables
// served through matrix.RowsReader views — typically snapshot slab sections
// accessed via chunked ReadAt. Tiles are computed from row windows gathered
// per block, through the same per-row-pair kernels over the same row bytes
// as a resident table, so every tile is bit-identical to what
// NewStreamPrepared over the materialized tables would produce; resident
// memory is O(tileRows·d + tileCols·d + tile) regardless of table size. (A
// view that is itself a *matrix.Dense is simply read in place.)
//
// Unlike NewStream/NewStreamPrepared, no finiteness scan runs at
// construction — the out-of-core entry point is the snapshot loader, whose
// per-section CRCs already vouch for the bytes, and the tables were
// validated finite when the saving run prepared them.
func NewStreamOOC(src, tgt matrix.RowsReader, metric Metric, opts ...StreamOption) (*Stream, error) {
	if src == nil || tgt == nil {
		return nil, fmt.Errorf("sim: nil embedding table view")
	}
	return newStream(src, tgt, metric, false, opts)
}

// newStream is the one validation and assembly path behind the three
// constructors: matching dimensions, non-empty, finite, known metric. Only
// the two *matrix.Dense constructors set finite; NewStreamOOC skips the scan
// (see there).
func newStream(src, tgt matrix.RowsReader, metric Metric, finite bool, opts []StreamOption) (*Stream, error) {
	srcRows, srcCols := src.Dims()
	tgtRows, tgtCols := tgt.Dims()
	if srcCols != tgtCols {
		return nil, fmt.Errorf("sim: embedding dims differ: %d vs %d", srcCols, tgtCols)
	}
	if srcRows == 0 || tgtRows == 0 {
		return nil, fmt.Errorf("%w: %d source rows, %d target rows", ErrEmptyEmbeddings, srcRows, tgtRows)
	}
	if finite {
		s, t := src.(*matrix.Dense), tgt.(*matrix.Dense)
		if i, j, ok := s.FindNonFinite(); ok {
			return nil, fmt.Errorf("%w: source[%d,%d] = %v", ErrNonFinite, i, j, s.At(i, j))
		}
		if i, j, ok := t.FindNonFinite(); ok {
			return nil, fmt.Errorf("%w: target[%d,%d] = %v", ErrNonFinite, i, j, t.At(i, j))
		}
	}
	switch metric {
	case Cosine, Euclidean, Manhattan:
	default:
		return nil, fmt.Errorf("sim: unknown metric %v", metric)
	}
	st := &Stream{
		src:      src,
		tgt:      tgt,
		metric:   metric,
		tileRows: matrix.DefaultTileRows,
		tileCols: matrix.DefaultTileCols,
	}
	for _, opt := range opts {
		opt(st)
	}
	return st, nil
}

// OutOfCore reports whether the stream computes tiles from disk-backed row
// windows instead of resident tables.
func (s *Stream) OutOfCore() bool {
	src, _ := s.PreparedTables()
	return src == nil
}

// WithDummies returns a view of the stream with n extra virtual columns of
// constant score appended after the real targets — the streaming equivalent
// of core.AddDummyColumns for the unmatchable setting. The prepared tables
// are shared, not copied. n <= 0 returns the stream unchanged.
func (s *Stream) WithDummies(n int, score float64) *Stream {
	if n <= 0 {
		return s
	}
	out := *s
	out.dummyCols += n
	out.dummyScore = score
	return &out
}

// PadCols implements matrix.ColPadder, so generic padding helpers
// (core.WithDummies on a streaming context) use the native dummy support.
func (s *Stream) PadCols(n int, score float64) matrix.TileSource {
	return s.WithDummies(n, score)
}

// Dims returns the score-matrix shape the stream covers, including any
// virtual dummy columns.
func (s *Stream) Dims() (rows, cols int) {
	srcRows, _ := s.src.Dims()
	return srcRows, s.RealCols() + s.dummyCols
}

// RealCols returns the number of non-dummy columns.
func (s *Stream) RealCols() int {
	tgtRows, _ := s.tgt.Dims()
	return tgtRows
}

// Metric returns the stream's similarity metric.
func (s *Stream) Metric() Metric { return s.metric }

// PreparedTables exposes the stream's prepared embedding tables — the
// row-normalized copies for cosine, the originals for distance metrics. The
// ANN index (internal/ann) builds over exactly these tables so its scores
// come from the same bits and the same dot kernel as the streamed tiles,
// which is what makes full-coverage ANN graphs bit-identical to the
// exhaustive builders'. Callers must not mutate the returned matrices.
// In out-of-core mode the tables are not resident and both returns are nil;
// engines that need resident tables (ANN build, quant re-rank) must be
// configured off the out-of-core fallback path.
func (s *Stream) PreparedTables() (src, tgt *matrix.Dense) {
	src, _ = s.src.(*matrix.Dense)
	tgt, _ = s.tgt.(*matrix.Dense)
	if src == nil || tgt == nil {
		return nil, nil
	}
	return src, tgt
}

// TableViews exposes the prepared tables as row readers, resident or not —
// the shard partitioner gathers per-shard sub-tables through them.
func (s *Stream) TableViews() (src, tgt matrix.RowsReader) { return s.src, s.tgt }

// MatrixBytes returns the size the dense score matrix would occupy — the
// allocation streaming avoids; reporting and memory-budget decisions use it.
func (s *Stream) MatrixBytes() int64 {
	rows, cols := s.Dims()
	return int64(rows) * int64(cols) * 8
}

// kernel fills dst with the block of real scores between rows aOff.. of a and
// rows bOff.. of b. Computing from a gathered window at offset 0 runs the
// same per-row-pair kernels over the same bits as computing from the whole
// table at the original offsets — the bit-identity argument for out-of-core
// tiles.
func (s *Stream) kernel(dst, a, b *matrix.Dense, aOff, bOff int) {
	switch s.metric {
	case Cosine:
		matrix.MulTransposedBlockInto(dst, a, b, aOff, bOff)
	case Euclidean:
		matrix.NegEuclideanBlockInto(dst, a, b, aOff, bOff)
	case Manhattan:
		matrix.NegManhattanBlockInto(dst, a, b, aOff, bOff)
	}
}

// rowWindow serves contiguous row ranges of one table to the tile loop as
// (table, offset) pairs: a *matrix.Dense is returned as is, zero-copy, at
// the requested offset; any other reader is gathered into a pooled buffer
// sized for the largest window and returned at offset 0.
type rowWindow struct {
	t   matrix.RowsReader
	win matrix.Dense
	buf []float64
}

func newRowWindow(t matrix.RowsReader, maxRows int) *rowWindow {
	w := &rowWindow{t: t}
	if _, resident := t.(*matrix.Dense); !resident {
		_, d := t.Dims()
		w.buf = matrix.GetTileBuf(maxRows * d)
	}
	return w
}

func (w *rowWindow) rows(row0, n int) (*matrix.Dense, int, error) {
	if d, resident := w.t.(*matrix.Dense); resident {
		return d, row0, nil
	}
	_, d := w.t.Dims()
	if err := w.t.ReadRows(w.buf[:n*d], row0, n); err != nil {
		return nil, 0, err
	}
	return &w.win, 0, w.win.Reshape(n, d, w.buf[:n*d])
}

func (w *rowWindow) release() {
	if w.buf != nil {
		matrix.PutTileBuf(w.buf)
	}
}

// StreamTiles produces every tile in row-major block order and feeds each to
// all consumers. Tiles spanning the virtual dummy range are constant-filled.
// Cancellation is checked once per tile — each tile is an O(tileRows ×
// tileCols × d) unit of work, the checkpoint granularity PR 1 established
// for the dense kernels — and once per row block, ahead of its source
// window. Out of core every row block re-gathers the target table, one
// window per tile: sequential I/O that the OS page cache absorbs across
// adjacent row blocks.
func (s *Stream) StreamTiles(ctx context.Context, consumers ...matrix.TileConsumer) error {
	if ctx == nil {
		ctx = context.Background()
	}
	rows, cols := s.Dims()
	realCols := s.RealCols()
	buf := matrix.GetTileBuf(s.tileRows * s.tileCols)
	defer matrix.PutTileBuf(buf)
	srcWin, tgtWin := newRowWindow(s.src, s.tileRows), newRowWindow(s.tgt, s.tileCols)
	defer srcWin.release()
	defer tgtWin.release()
	// One tile header reused across the whole pass; consumers must not
	// retain it (the TileConsumer contract).
	tile := new(matrix.Dense)
	for rb := 0; rb < rows; rb += s.tileRows {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		rn := min(s.tileRows, rows-rb)
		a, aOff, err := srcWin.rows(rb, rn)
		if err != nil {
			return err
		}
		for cb := 0; cb < cols; cb += s.tileCols {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			cn := min(s.tileCols, cols-cb)
			if err := tile.Reshape(rn, cn, buf[:rn*cn]); err != nil {
				return err
			}
			// realN columns of this tile are real scores, the rest dummies.
			realN := max(0, min(cn, realCols-cb))
			if realN > 0 {
				b, bOff, err := tgtWin.rows(cb, realN)
				if err != nil {
					return err
				}
				s.fillReal(tile, a, b, aOff, bOff, realN)
			}
			if realN < cn {
				for r := 0; r < rn; r++ {
					dummies := tile.Row(r)[realN:]
					for c := range dummies {
						dummies[c] = s.dummyScore
					}
				}
			}
			for _, c := range consumers {
				c.ConsumeTile(rb, cb, tile)
			}
		}
	}
	return nil
}

// fillReal computes the first realN columns of the tile. A tile split by the
// dummy boundary has a wider stride than its real prefix, which the block
// kernels cannot write into, so the prefix is computed into a scratch block
// and copied row-wise.
func (s *Stream) fillReal(tile, a, b *matrix.Dense, aOff, bOff, realN int) {
	if realN == tile.Cols() {
		s.kernel(tile, a, b, aOff, bOff)
		return
	}
	real, _ := matrix.NewFromData(tile.Rows(), realN, matrix.GetTileBuf(tile.Rows()*realN))
	s.kernel(real, a, b, aOff, bOff)
	for r := 0; r < tile.Rows(); r++ {
		copy(tile.Row(r)[:realN], real.Row(r))
	}
	matrix.PutTileBuf(real.Data())
}

// blockRows returns an accessor for the listed rows of t, with ids at or
// past limit standing for virtual rows (nil): zero-copy views into a
// *matrix.Dense, a one-time gather of the real rows for any other reader —
// O(|ids|·d) memory either way.
func blockRows(t matrix.RowsReader, ids []int, limit int) (func(x int) []float64, error) {
	if d, resident := t.(*matrix.Dense); resident {
		return func(x int) []float64 {
			if id := ids[x]; id < limit {
				return d.Row(id)
			}
			return nil
		}, nil
	}
	pos := make([]int, len(ids))
	realIDs := make([]int, 0, len(ids))
	for x, id := range ids {
		pos[x] = -1
		if id < limit {
			pos[x] = len(realIDs)
			realIDs = append(realIDs, id)
		}
	}
	g, err := matrix.GatherRows(t, realIDs)
	if err != nil {
		return nil, err
	}
	return func(x int) []float64 {
		if p := pos[x]; p >= 0 {
			return g.Row(p)
		}
		return nil
	}, nil
}

// Block materializes the sub-matrix at the row/column ID cross product,
// computing scores directly from the embedding tables (column IDs at or past
// RealCols yield the dummy score). This is the mini-batch construction hook
// for blocked matchers: memory stays O(|rowIDs|·|colIDs|), plus the gathered
// rows out of core.
//
// Rows are processed in groups of three; a full cosine group shares each
// target-row read through the register-blocked kernel (matrix.DotBlock3),
// everything else — the ragged last group, the distance metrics — takes the
// per-pair kernel. Blocked and per-pair scores are bit-identical, so Block
// results do not depend on the grouping.
func (s *Stream) Block(ctx context.Context, rowIDs, colIDs []int) (*matrix.Dense, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	rows, cols := s.Dims()
	for _, i := range rowIDs {
		if i < 0 || i >= rows {
			return nil, fmt.Errorf("sim: block row %d outside %d source rows", i, rows)
		}
	}
	for _, j := range colIDs {
		if j < 0 || j >= cols {
			return nil, fmt.Errorf("sim: block col %d outside %d target cols", j, cols)
		}
	}
	srcRow, err := blockRows(s.src, rowIDs, rows)
	if err != nil {
		return nil, err
	}
	tgtRow, err := blockRows(s.tgt, colIDs, s.RealCols())
	if err != nil {
		return nil, err
	}
	pair := matrix.Dot4
	switch s.metric {
	case Euclidean:
		pair = matrix.NegEuclidean
	case Manhattan:
		pair = matrix.NegManhattan
	}
	out := matrix.New(len(rowIDs), len(colIDs))
	err = matrix.ParallelRowsCtx(ctx, (len(rowIDs)+2)/3, func(g int) {
		x := g * 3
		if s.metric == Cosine && x+3 <= len(rowIDs) {
			s0, s1, s2 := srcRow(x), srcRow(x+1), srcRow(x+2)
			d0, d1, d2 := out.Row(x), out.Row(x+1), out.Row(x+2)
			var blk [3]float64
			for y := range colIDs {
				trow := tgtRow(y)
				if trow == nil {
					d0[y], d1[y], d2[y] = s.dummyScore, s.dummyScore, s.dummyScore
					continue
				}
				matrix.DotBlock3(s0, s1, s2, trow, &blk)
				d0[y], d1[y], d2[y] = blk[0], blk[1], blk[2]
			}
			return
		}
		for end := min(x+3, len(rowIDs)); x < end; x++ {
			srow, drow := srcRow(x), out.Row(x)
			for y := range colIDs {
				if trow := tgtRow(y); trow != nil {
					drow[y] = pair(srow, trow)
				} else {
					drow[y] = s.dummyScore
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
