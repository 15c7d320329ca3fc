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

// NewStream validates the embedding tables (matching dimensions, non-empty,
// finite, known metric) and returns a streaming engine over them. It is also
// the dense matrix's gate: MatrixContext is NewStream plus one in-place fill.
// For cosine it takes row-normalized copies up front — O((n+m)·d) extra
// memory, the only per-stream allocation that scales with the input.
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

// Dims returns the score-matrix shape the stream covers: source rows by
// target rows. Dummy columns for the unmatchable setting are appended by
// wrapping the stream in matrix.PadCols.
func (s *Stream) Dims() (rows, cols int) {
	srcRows, _ := s.src.Dims()
	tgtRows, _ := s.tgt.Dims()
	return srcRows, tgtRows
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
// allocation streaming avoids, as the CLI reports it.
func (s *Stream) MatrixBytes() int64 {
	rows, cols := s.Dims()
	return int64(rows) * int64(cols) * 8
}

// kernel fills dst with the block of scores between rows aOff.. of a and
// rows bOff.. of b. It is the only code that turns embedding rows into
// scores: tiles, Blocks and the dense matrix all run it. Computing from a
// gathered window at offset 0 runs the same per-row-pair arithmetic over the
// same bits as computing from the whole table at the original offsets — the
// bit-identity argument for out-of-core tiles and gathered Blocks.
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
// all consumers. Cancellation is checked once per tile — each tile is an
// O(tileRows × tileCols × d) unit of work, the dense kernels' checkpoint
// granularity — and once per row block, ahead of its source window. Out of
// core every row block re-gathers the target table, one window per tile:
// sequential I/O that the OS page cache absorbs across adjacent row blocks.
func (s *Stream) StreamTiles(ctx context.Context, consumers ...matrix.TileConsumer) error {
	if ctx == nil {
		ctx = context.Background()
	}
	rows, cols := s.Dims()
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
			b, bOff, err := tgtWin.rows(cb, cn)
			if err != nil {
				return err
			}
			s.kernel(tile, a, b, aOff, bOff)
			for _, c := range consumers {
				c.ConsumeTile(rb, cb, tile)
			}
		}
	}
	return nil
}

// dense writes the whole score matrix: the tile kernel run straight into
// each full-width strip of tileRows rows of the result, with no tile buffer
// and no copy. ctx is checked once per strip. The tables must be resident,
// as they are on every NewStream stream (MatrixContext's only use).
func (s *Stream) dense(ctx context.Context) (*matrix.Dense, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rows, cols := s.Dims()
	out := matrix.New(rows, cols)
	a, b := s.src.(*matrix.Dense), s.tgt.(*matrix.Dense)
	strip := new(matrix.Dense)
	for rb := 0; rb < rows; rb += s.tileRows {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		rn := min(s.tileRows, rows-rb)
		if err := strip.Reshape(rn, cols, out.Data()[rb*cols:(rb+rn)*cols]); err != nil {
			return nil, err
		}
		s.kernel(strip, a, b, rb, 0)
	}
	return out, nil
}

// blockWindow serves the listed rows of t to the kernel as a (table, offset)
// pair: an ascending run of consecutive IDs on a *matrix.Dense is read in
// place at its first ID; anything else — scattered or repeated IDs, or any
// table out of core — is gathered into a fresh table at offset 0.
func blockWindow(t matrix.RowsReader, ids []int) (*matrix.Dense, int, error) {
	if d, resident := t.(*matrix.Dense); resident && len(ids) > 0 {
		x := 1
		for x < len(ids) && ids[x] == ids[0]+x {
			x++
		}
		if x == len(ids) {
			return d, ids[0], nil
		}
	}
	g, err := matrix.GatherRows(t, ids)
	return g, 0, err
}

// Block materializes the sub-matrix at the row/column ID cross product,
// computing scores directly from the embedding tables. This is the
// mini-batch construction hook for blocked matchers: memory stays
// O(|rowIDs|·|colIDs|), plus any gathered rows. Each side is a row window
// (blockWindow) and the scores are one run of the tile kernel over the two,
// so a Block holds exactly the bits the tile pass streams for the same
// pairs. ctx is checked once per call.
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
	a, aOff, err := blockWindow(s.src, rowIDs)
	if err != nil {
		return nil, err
	}
	b, bOff, err := blockWindow(s.tgt, colIDs)
	if err != nil {
		return nil, err
	}
	out := matrix.New(len(rowIDs), len(colIDs))
	s.kernel(out, a, b, aOff, bOff)
	return out, nil
}
