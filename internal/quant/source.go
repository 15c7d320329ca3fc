package quant

import (
	"context"
	"fmt"

	"entmatcher/internal/matrix"
)

// Source wraps a streaming tile source and implements
// matrix.CandGraphProducer on top of the two-phase quantized scan: the
// exhaustive candidate-graph build ranks every candidate with the int8
// kernel over the 8×-smaller code slabs, then re-scores the over-fetched
// pool with the exact float64 kernel, so the emitted graphs match the
// float64 exhaustive pass bit-for-bit at the default rerank factor
// (conformance-pinned) while the hot loop reads one byte per value instead
// of eight. matrix.TileSource is implemented by delegation, so consumers
// that genuinely need tiles or blocks (Sinkhorn's mini-batches, degradation
// fallbacks) keep exact scores; only candidate-graph construction is
// intercepted.
//
// Deliberately NOT implemented: matrix.ColPadder — padding a Source for the
// unmatchable setting goes through the generic wrapper, which hides the
// producer interface, so dummy-column runs fall back to the exact streaming
// build rather than scanning quantized codes around virtual columns. This
// mirrors ann.Source.
type Source struct {
	inner          matrix.TileSource
	srcTab, tgtTab *matrix.Dense
	srcQ, tgtQ     *Table
	factor         int  // pool over-fetch multiplier; <= 0 means default
	rerank         bool // false = quantized-only escape hatch

	// fwd scans the target table (source rows query it), rev the source
	// table: each a Scanner over one run [0, rows) with identity ids.
	fwd, rev *Scanner
}

// NewSource validates shapes and returns a quantized producer over the
// prepared embedding tables and their SQ8 encodings. inner must cover
// exactly srcTab.Rows()×tgtTab.Rows() scores, the float tables must be the
// prepared rows the stream scores with, and each quantized table must
// encode its float twin (srcQ over srcTab, tgtQ over tgtTab). factor <= 0
// selects DefaultRerankFactor; rerank=false switches to quantized-only
// scoring (approximate scores, no float64 pass — the speed escape hatch).
func NewSource(inner matrix.TileSource, srcTab, tgtTab *matrix.Dense, srcQ, tgtQ *Table, factor int, rerank bool) (*Source, error) {
	if inner == nil {
		return nil, fmt.Errorf("quant: nil tile source")
	}
	if srcTab == nil || tgtTab == nil {
		return nil, fmt.Errorf("quant: nil embedding table")
	}
	if srcQ == nil || tgtQ == nil {
		return nil, fmt.Errorf("quant: nil quantized table")
	}
	if srcTab.Cols() != tgtTab.Cols() {
		return nil, fmt.Errorf("quant: table dims differ: %d vs %d", srcTab.Cols(), tgtTab.Cols())
	}
	rows, cols := inner.Dims()
	if rows != srcTab.Rows() || cols != tgtTab.Rows() {
		return nil, fmt.Errorf("quant: tile source covers %d×%d but tables are %d×%d",
			rows, cols, srcTab.Rows(), tgtTab.Rows())
	}
	if srcQ.Rows() != srcTab.Rows() || srcQ.Dim() != srcTab.Cols() {
		return nil, fmt.Errorf("quant: source codes cover %d×%d but table is %d×%d",
			srcQ.Rows(), srcQ.Dim(), srcTab.Rows(), srcTab.Cols())
	}
	if tgtQ.Rows() != tgtTab.Rows() || tgtQ.Dim() != tgtTab.Cols() {
		return nil, fmt.Errorf("quant: target codes cover %d×%d but table is %d×%d",
			tgtQ.Rows(), tgtQ.Dim(), tgtTab.Rows(), tgtTab.Cols())
	}
	return &Source{
		inner: inner, srcTab: srcTab, tgtTab: tgtTab, srcQ: srcQ, tgtQ: tgtQ,
		factor: factor, rerank: rerank,
		fwd: flatScanner(tgtQ, tgtTab), rev: flatScanner(srcQ, srcTab),
	}, nil
}

// flatScanner views a float table and its SQ8 codes as the scan core's
// degenerate candidate set: a single run covering every row, positions
// emitted as they are.
func flatScanner(tq *Table, ft *matrix.Dense) *Scanner {
	return &Scanner{
		Tag: "quant", Dim: tq.dim, Bounds: []int64{0, int64(tq.rows)},
		Vecs: ft.Data(), Codes: tq.codes, Table: tq,
	}
}

// Dims implements matrix.TileSource by delegation.
func (s *Source) Dims() (rows, cols int) { return s.inner.Dims() }

// StreamTiles implements matrix.TileSource by delegation: consumers that
// need the full score stream still get the exact tiles.
func (s *Source) StreamTiles(ctx context.Context, consumers ...matrix.TileConsumer) error {
	return s.inner.StreamTiles(ctx, consumers...)
}

// Block delegates mini-batch extraction to the inner source: blocked
// matchers get exact on-demand scores regardless of the quantized slabs.
func (s *Source) Block(ctx context.Context, rowIDs, colIDs []int) (*matrix.Dense, error) {
	return s.inner.Block(ctx, rowIDs, colIDs)
}

// search runs the two-phase scan of every row of qTab over sc's table.
func (s *Source) search(ctx context.Context, sc *Scanner, qTab *matrix.Dense, c int) ([]matrix.TopK, error) {
	return sc.SearchQuant(ctx, qTab, c, nil, s.factor, s.rerank)
}

// SearchRow answers one forward point query — the top-k target columns for
// source row, best first — through the same two-phase scan as the graph
// build, so a point lookup served from the quantized slabs returns exactly
// the bits a graph row would carry. The returned TopK owns its storage.
func (s *Source) SearchRow(ctx context.Context, row, k int) (matrix.TopK, error) {
	tks, err := s.SearchRows(ctx, []int{row}, k)
	if err != nil {
		return matrix.TopK{}, err
	}
	return tks[0], nil
}

// SearchRows answers several forward point queries in one register-blocked
// pass: the selected source rows are gathered into a query table and served
// through the same grouped two-phase scan as the graph build, so each
// returned TopK is bit-identical to SearchRow(row, k) — one corpus-slab
// read now serves up to four queries instead of one. Every TopK owns its
// storage. An out-of-range row is matrix.ErrSlab; k < 1 is the scan's error.
func (s *Source) SearchRows(ctx context.Context, rows []int, k int) ([]matrix.TopK, error) {
	qTab, err := matrix.GatherRows(s.srcTab, rows)
	if err != nil {
		return nil, err
	}
	return s.search(ctx, s.fwd, qTab, k)
}

// ProduceParts implements matrix.PartsProducer: each requested part is one
// two-phase scan and nothing else is derived. The forward graph scans the
// target-side codes with each source row as the query; the reverse graph and
// the column statistic scan the source-side codes with each target row.
//
// Like ann.Source, the column statistic (CSLS's φ_t) is estimated from each
// target row's KCol best scores, summed in descending-score order rather
// than the dense path's heap-array order, so means can differ in the last
// ulps at KCol > 1 (KCol = 1 is pinned exact).
func (s *Source) ProduceParts(ctx context.Context, req matrix.GraphRequest) (matrix.GraphParts, error) {
	return matrix.SearchedParts(req, s.srcTab.Rows(), s.tgtTab.Rows(),
		func(c int) ([]matrix.TopK, error) { return s.search(ctx, s.fwd, s.srcTab, c) },
		func(c int) ([]matrix.TopK, error) { return s.search(ctx, s.rev, s.tgtTab, c) })
}

// ProduceCandGraph implements matrix.CandGraphProducer: the forward
// candidate graph from the quantized scan instead of the float64 tile pass.
func (s *Source) ProduceCandGraph(ctx context.Context, c int) (*matrix.CandGraph, error) {
	return matrix.PartsCandGraph(ctx, s, c)
}

// ProduceCandGraphs implements matrix.CandGraphProducer; the reverse graph
// scans the source-side codes with each target row as the query.
func (s *Source) ProduceCandGraphs(ctx context.Context, c, cRev int) (fwd, rev *matrix.CandGraph, err error) {
	return matrix.PartsCandGraphs(ctx, s, c, cRev)
}

// ProduceCandGraphWithColMeans implements matrix.CandGraphProducer; see
// ProduceParts for how the column statistic is estimated.
func (s *Source) ProduceCandGraphWithColMeans(ctx context.Context, c, kCol int) (*matrix.CandGraph, []float64, error) {
	return matrix.PartsCandGraphWithColMeans(ctx, s, c, kCol)
}
