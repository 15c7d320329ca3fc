package matrix

import (
	"context"
	"fmt"
	"math"
	"slices"
)

// CandGraph is a compressed-sparse-row candidate graph over a score matrix:
// for every row, its top-C columns by score, stored as int32 column ids and
// float64 scores. Within a row, entries are ordered by descending score with
// ties by ascending column — exactly the total order Dense.RowTopK emits —
// so prefix truncation and "first candidate" preserve the earliest-index
// tie-break contract the dense kernels document.
//
// The graph is the bridge between the streaming similarity engine and the
// matchers that otherwise need the dense matrix: one tiled pass reduces the
// O(rows·cols) score matrix to O(rows·C) edges, and the sparse matcher twins
// (RInfSparse, HungarianSparse, SMatSparse, ...) run on the edges alone.
type CandGraph struct {
	rows, cols int
	rowPtr     []int64   // len rows+1; row i spans rowPtr[i]..rowPtr[i+1]
	colIdx     []int32   // len nnz
	score      []float64 // len nnz, aligned with colIdx
}

// Rows returns the number of rows the graph covers.
func (g *CandGraph) Rows() int { return g.rows }

// Cols returns the width of the underlying score matrix (the column id
// space), not the per-row candidate count.
func (g *CandGraph) Cols() int { return g.cols }

// NNZ returns the total number of stored candidate edges.
func (g *CandGraph) NNZ() int { return len(g.colIdx) }

// Row returns row i's candidate column ids and scores, ordered by
// descending score with ties by ascending column. The slices alias the
// graph's storage and must not be mutated.
func (g *CandGraph) Row(i int) ([]int32, []float64) {
	lo, hi := g.rowPtr[i], g.rowPtr[i+1]
	return g.colIdx[lo:hi], g.score[lo:hi]
}

// RowOffset returns the position of row i's first edge in the graph's edge
// order: an array aligned with the edges holds row i's entries at
// [RowOffset(i), RowOffset(i+1)).
func (g *CandGraph) RowOffset(i int) int { return int(g.rowPtr[i]) }

// SizeBytes returns the heap footprint of the graph's storage, the quantity
// the ExtraBytes accounting rule tracks.
func (g *CandGraph) SizeBytes() int64 {
	return int64(len(g.colIdx))*12 + int64(g.rows+1)*8
}

// RowHeadScores returns each row's best score (the first stored candidate),
// or -Inf for rows with no candidates — the value Dense.RowMax yields for
// width-zero rows. For any budget C >= 1 the head is the exact row maximum,
// which is what lets reverse-direction statistics (RInf's max_u' S(v,u'))
// come from a truncated graph without error.
func (g *CandGraph) RowHeadScores() []float64 {
	out := make([]float64, g.rows)
	for i := 0; i < g.rows; i++ {
		if g.rowPtr[i] < g.rowPtr[i+1] {
			out[i] = g.score[g.rowPtr[i]]
		} else {
			out[i] = math.Inf(-1)
		}
	}
	return out
}

// CSC is the transpose view of a CandGraph: for every column, the rows that
// listed it as a candidate, in ascending row order, plus each entry's
// position in the CSR arrays so per-edge data computed on the CSR side can
// be joined without hashing.
type CSC struct {
	ColPtr []int64 // len cols+1
	RowIdx []int32 // len nnz, ascending within a column
	Pos    []int32 // len nnz; index into the graph's colIdx/score arrays
}

// CSCView builds the transpose view in two O(nnz) counting passes. Entries
// within a column appear in ascending row order because rows are scattered
// in ascending order.
func (g *CandGraph) CSCView() *CSC {
	counts := make([]int64, g.cols+1)
	for _, j := range g.colIdx {
		counts[j+1]++
	}
	for j := 0; j < g.cols; j++ {
		counts[j+1] += counts[j]
	}
	v := &CSC{
		ColPtr: counts,
		RowIdx: make([]int32, len(g.colIdx)),
		Pos:    make([]int32, len(g.colIdx)),
	}
	next := make([]int64, g.cols)
	copy(next, counts[:g.cols])
	for i := 0; i < g.rows; i++ {
		for p := g.rowPtr[i]; p < g.rowPtr[i+1]; p++ {
			j := g.colIdx[p]
			x := next[j]
			next[j]++
			v.RowIdx[x] = int32(i)
			v.Pos[x] = int32(p)
		}
	}
	return v
}

// ColSortedClone returns a copy of the graph whose rows are re-ordered by
// ascending column id instead of descending score. Kernels that must sum a
// row in ascending column order to stay bit-identical with their dense
// counterparts (Sinkhorn's row normalization, greedy argmax) run on this
// layout. Rows are sorted independently, in parallel.
func (g *CandGraph) ColSortedClone() *CandGraph {
	out := &CandGraph{
		rows:   g.rows,
		cols:   g.cols,
		rowPtr: slices.Clone(g.rowPtr),
		colIdx: make([]int32, len(g.colIdx)),
		score:  make([]float64, len(g.score)),
	}
	parallelChunks(g.rows, func(lo, hi int) {
		// keys[y] is (column << 32 | stored position) of the row's y-th
		// smallest column.
		var keys []uint64
		for i := lo; i < hi; i++ {
			p := g.rowPtr[i]
			cand, scores := g.Row(i)
			keys = keys[:0]
			for x, j := range cand {
				keys = append(keys, uint64(j)<<32|uint64(x))
			}
			slices.Sort(keys)
			for y, k := range keys {
				out.colIdx[p+int64(y)] = int32(k >> 32)
				out.score[p+int64(y)] = scores[uint32(k)]
			}
		}
	})
	return out
}

// CandGraphProducer is the three-call surface of a tile source that answers
// candidate-graph requests itself instead of being streamed exhaustively.
// The Build* entry points below dispatch to it first; in this module
// GraphMemo is the one implementation, and the engines (ann, quant, shard)
// implement PartsProducer.
//
// Producers own the clamping of budgets to the matrix shape and must return
// graphs satisfying the CandGraph CSR contract (rows in (value desc, index
// asc) order); NewCandGraph re-validates it. Below exhaustive coverage a
// producer's graph is approximate — rows may hold fewer than c candidates
// and may miss true top-c columns — but every row head it does return must
// still be a genuinely scored value, and at full coverage (e.g. nprobe =
// Clusters for the IVF index) the graph must be bit-identical to the
// exhaustive builders'.
type CandGraphProducer interface {
	// ProduceCandGraph is the BuildCandGraph counterpart: the top-c columns
	// of every row.
	ProduceCandGraph(ctx context.Context, c int) (*CandGraph, error)
	// ProduceCandGraphs is the BuildCandGraphs counterpart; rev is nil when
	// cRev <= 0.
	ProduceCandGraphs(ctx context.Context, c, cRev int) (fwd, rev *CandGraph, err error)
	// ProduceCandGraphWithColMeans is the BuildCandGraphWithColMeans
	// counterpart: the forward graph plus per-column top-kCol means (the
	// CSLS φ_t statistic).
	ProduceCandGraphWithColMeans(ctx context.Context, c, kCol int) (*CandGraph, []float64, error)
}

// GraphRequest names the candidate-graph parts a caller wants, each by its
// budget; a budget <= 0 leaves that part out. The three parts are
// independent functions of the scores, which is what lets the memo (memo.go)
// build only the ones it does not hold.
type GraphRequest struct {
	C    int // forward graph: top-C columns of every row
	CRev int // reverse graph: top-CRev rows of every column
	KCol int // per-column top-KCol means (the CSLS φ_t statistic)
}

// GraphParts is the answer to a GraphRequest; parts not asked for are nil.
type GraphParts struct {
	Fwd, Rev *CandGraph
	ColMeans []float64
}

// PartsProducer is the producer contract: every part independently
// requestable, so no caller pays for a forward graph it already has. The
// in-tree engines (ann, quant, shard) and the memo implement it; the Build*
// entry points reach it through the parts* adapters below, under the same
// producer contract as CandGraphProducer.
type PartsProducer interface {
	Dims() (rows, cols int)
	ProduceParts(ctx context.Context, req GraphRequest) (GraphParts, error)
}

// checkBudget rejects a forward budget below one candidate per row.
func checkBudget(c int) error {
	if c < 1 {
		return fmt.Errorf("%w: candidate budget %d < 1", ErrShape, c)
	}
	return nil
}

// checkBuild validates the arguments every Build* entry point shares.
func checkBuild(src TileSource, c int) error {
	if src == nil {
		return fmt.Errorf("matrix: nil tile source")
	}
	return checkBudget(c)
}

// partsCandGraph is ProduceCandGraph over a PartsProducer.
func partsCandGraph(ctx context.Context, p PartsProducer, c int) (*CandGraph, error) {
	if err := checkBudget(c); err != nil {
		return nil, err
	}
	parts, err := p.ProduceParts(ctx, GraphRequest{C: c})
	return parts.Fwd, err
}

// partsCandGraphs is ProduceCandGraphs over a PartsProducer.
func partsCandGraphs(ctx context.Context, p PartsProducer, c, cRev int) (fwd, rev *CandGraph, err error) {
	if err := checkBudget(c); err != nil {
		return nil, nil, err
	}
	parts, err := p.ProduceParts(ctx, GraphRequest{C: c, CRev: cRev})
	return parts.Fwd, parts.Rev, err
}

// partsCandGraphWithColMeans is ProduceCandGraphWithColMeans over a
// PartsProducer. kCol <= 0 yields all-zero means, mirroring
// Dense.ColTopKMeans, without asking the producer for them.
func partsCandGraphWithColMeans(ctx context.Context, p PartsProducer, c, kCol int) (*CandGraph, []float64, error) {
	if err := checkBudget(c); err != nil {
		return nil, nil, err
	}
	parts, err := p.ProduceParts(ctx, GraphRequest{C: c, KCol: kCol})
	if err != nil {
		return nil, nil, err
	}
	if kCol <= 0 {
		_, cols := p.Dims()
		parts.ColMeans = make([]float64, cols)
	}
	return parts.Fwd, parts.ColMeans, nil
}

// TopKMeans averages each selection in its stored (descending) order; an
// empty selection averages to 0. The index-backed producers estimate φ_t
// this way from reverse searches, so their means can differ from the
// exhaustive pass's heap-array-order sums in the last ulps at k > 1.
func TopKMeans(tks []TopK) []float64 {
	out := make([]float64, len(tks))
	for j, tk := range tks {
		out[j] = HeadMean(tk.Values, len(tk.Values))
	}
	return out
}

// HeadMean is TopKMeans' arithmetic on the first k of values (all of them
// when there are fewer): summed in stored order, 0 for none. A search whose
// budget-k answer is a prefix of its wider one gets its statistic this way.
func HeadMean(values []float64, k int) float64 {
	values = values[:min(k, len(values))]
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// SearchedParts is ProduceParts for a producer that answers by search: fwd(c)
// returns the top-c columns of every row, rev(c, kCol, means) the top-c rows
// of every column and, when means is non-nil (1 <= kCol <= c), writes
// means[j]: TopKMeans of column j's answer to a separate rev(kCol, 0, nil),
// bit for bit. So a request for the reverse graph and a column statistic at
// KCol <= CRev is one reverse search; every other part is one search of its
// own, and nothing is derived.
func SearchedParts(req GraphRequest, rows, cols int, fwd func(c int) ([]TopK, error), rev func(c, kCol int, means []float64) ([]TopK, error)) (GraphParts, error) {
	var out GraphParts
	if req.C > 0 {
		tks, err := fwd(req.C)
		if err != nil {
			return GraphParts{}, err
		}
		if out.Fwd, err = NewCandGraph(cols, tks); err != nil {
			return GraphParts{}, err
		}
	}
	if req.CRev > 0 {
		kCol := 0
		if req.KCol > 0 && req.KCol <= req.CRev {
			kCol, out.ColMeans = req.KCol, make([]float64, cols)
		}
		tks, err := rev(req.CRev, kCol, out.ColMeans)
		if err != nil {
			return GraphParts{}, err
		}
		if out.Rev, err = NewCandGraph(rows, tks); err != nil {
			return GraphParts{}, err
		}
	}
	if req.KCol > 0 && out.ColMeans == nil {
		tks, err := rev(req.KCol, 0, nil)
		if err != nil {
			return GraphParts{}, err
		}
		out.ColMeans = TopKMeans(tks)
	}
	return out, nil
}

// BuildCandGraph streams src once and returns the forward candidate graph:
// the top-c columns of every row (c is clamped to the matrix width). All
// candidate selection funnels through the same bounded heap the dense
// RowTopK uses, so at c >= cols the graph holds every score of every row in
// Dense.RowTopK order, bit-exactly.
//
// A source implementing CandGraphProducer, or else PartsProducer (the ANN,
// SQ8 and sharded engines), produces the graph itself instead of being
// streamed exhaustively; its result may be approximate below full coverage.
func BuildCandGraph(ctx context.Context, src TileSource, c int) (*CandGraph, error) {
	if err := checkBuild(src, c); err != nil {
		return nil, err
	}
	if p, ok := src.(CandGraphProducer); ok {
		return p.ProduceCandGraph(ctx, c)
	}
	return partsCandGraph(ctx, partsOf(src), c)
}

// BuildCandGraphs streams src once and returns both the forward graph
// (top-c per row) and the reverse graph: the forward candidate graph of the
// transposed score matrix (top-cRev rows per column, cRev clamped to the
// row count), built by a fused per-column consumer in the same tiled pass.
// The reverse graph is what gives the sparse matchers their
// reverse-direction statistics — RInf's target-side preferences, the
// Hungarian transpose fallback — without a second sweep over the scores.
func BuildCandGraphs(ctx context.Context, src TileSource, c, cRev int) (fwd, rev *CandGraph, err error) {
	if err := checkBuild(src, c); err != nil {
		return nil, nil, err
	}
	if p, ok := src.(CandGraphProducer); ok {
		return p.ProduceCandGraphs(ctx, c, cRev)
	}
	return partsCandGraphs(ctx, partsOf(src), c, cRev)
}

// BuildCandGraphWithColMeans streams src once and returns the forward graph
// plus the per-column top-kCol means — the CSLS φ_t statistic — from the
// same pass. The means are averaged in heap-array order, exactly as
// Dense.ColTopKMeans sums, so a sparse CSLS built on them matches the dense
// transform bit-for-bit. kCol should arrive clamped to the row count.
func BuildCandGraphWithColMeans(ctx context.Context, src TileSource, c, kCol int) (*CandGraph, []float64, error) {
	if err := checkBuild(src, c); err != nil {
		return nil, nil, err
	}
	if p, ok := src.(CandGraphProducer); ok {
		return p.ProduceCandGraphWithColMeans(ctx, c, kCol)
	}
	return partsCandGraphWithColMeans(ctx, partsOf(src), c, kCol)
}

// partsOf is src's own PartsProducer, or StreamParts over it.
func partsOf(src TileSource) PartsProducer {
	if p, ok := src.(PartsProducer); ok {
		return p
	}
	return exhaustive{src}
}

// exhaustive is the PartsProducer of a plain tile source: StreamParts.
type exhaustive struct{ TileSource }

func (e exhaustive) ProduceParts(ctx context.Context, req GraphRequest) (GraphParts, error) {
	return StreamParts(ctx, e.TileSource, req)
}

// StreamParts is the one exhaustive builder: a single StreamTiles pass over
// src carrying an accumulator per requested part and nothing else — a
// RunningTopK for the forward graph, a ColTopKAcc(CRev) for the reverse
// graph, a ColTopKAcc(KCol) for the column means. C and CRev are clamped to
// the matrix shape; KCol is used as given (see BuildCandGraphWithColMeans).
// KCol = 1 beside a reverse graph takes no accumulator: the width-CRev and
// width-1 column heaps see the same offers in the same order and keep the
// first-k prefix of (value desc, index asc), so those means are the reverse
// graph's row heads (revHeadMeans). An empty request streams nothing.
func StreamParts(ctx context.Context, src TileSource, req GraphRequest) (GraphParts, error) {
	rows, cols := src.Dims()
	var consumers []TileConsumer
	var fwdAcc *RunningTopK
	var revAcc, meanAcc *ColTopKAcc
	if req.C > 0 {
		fwdAcc = NewRunningTopK(rows, min(req.C, cols))
		defer fwdAcc.Release()
		consumers = append(consumers, fwdAcc)
	}
	if req.CRev > 0 {
		revAcc = NewColTopKAcc(cols, min(req.CRev, rows))
		defer revAcc.Release()
		consumers = append(consumers, revAcc)
	}
	headMeans := req.KCol == 1 && revAcc != nil
	if req.KCol > 0 && !headMeans {
		meanAcc = NewColTopKAcc(cols, req.KCol)
		defer meanAcc.Release()
		consumers = append(consumers, meanAcc)
	}
	var out GraphParts
	if len(consumers) == 0 {
		return out, nil
	}
	err := src.StreamTiles(ctx, consumers...)
	if err == nil && fwdAcc != nil {
		out.Fwd, err = graphFromHeaps(fwdAcc.heaps, cols)
	}
	if err == nil && revAcc != nil {
		out.Rev, err = graphFromHeaps(revAcc.heaps, rows)
	}
	if err != nil {
		return GraphParts{}, err
	}
	if headMeans {
		out.ColMeans = revHeadMeans(out.Rev)
	} else if meanAcc != nil {
		out.ColMeans = meanAcc.Means()
	}
	return out, nil
}

// revHeadMeans is the KCol = 1 column statistic read off a reverse graph:
// heapMean of a one-entry heap holding each row's head (0 + head, so -0.0
// becomes +0.0), and 0 for an empty row.
func revHeadMeans(rev *CandGraph) []float64 {
	out := make([]float64, rev.rows)
	for j := range out {
		if lo := rev.rowPtr[j]; lo < rev.rowPtr[j+1] {
			out[j] += rev.score[lo]
		}
	}
	return out
}

// NewCandGraph assembles a candidate graph from per-row TopK selections over
// a width-cols column space — the constructor CandGraphProducer
// implementations use. It enforces the full CSR contract the exhaustive
// builders guarantee by construction: every row in strict (value desc, index
// asc) order with no duplicate columns, all column ids in [0, cols), and a
// total edge count within int32 addressing (the CSCView position join's
// limit). The TopK contents are copied, so callers may reuse pooled
// selector storage afterwards.
func NewCandGraph(cols int, rows []TopK) (*CandGraph, error) {
	if cols < 0 {
		return nil, fmt.Errorf("%w: negative column count %d", ErrShape, cols)
	}
	var nnz int64
	for i := range rows {
		if len(rows[i].Values) != len(rows[i].Indices) {
			return nil, fmt.Errorf("%w: row %d has %d values but %d indices",
				ErrShape, i, len(rows[i].Values), len(rows[i].Indices))
		}
		nnz += int64(len(rows[i].Values))
	}
	if nnz > math.MaxInt32 {
		return nil, fmt.Errorf("%w: candidate graph with %d edges exceeds int32 addressing", ErrShape, nnz)
	}
	g := &CandGraph{
		rows:   len(rows),
		cols:   cols,
		rowPtr: make([]int64, len(rows)+1),
		colIdx: make([]int32, nnz),
		score:  make([]float64, nnz),
	}
	var p int64
	for i := range rows {
		g.rowPtr[i] = p
		pv, pj := math.Inf(1), -1
		for x, v := range rows[i].Values {
			j := rows[i].Indices[x]
			if j < 0 || j >= cols {
				return nil, fmt.Errorf("%w: row %d candidate %d: column %d out of range [0,%d)",
					ErrShape, i, x, j, cols)
			}
			if x > 0 && !(pv > v || (pv == v && pj < j)) {
				return nil, fmt.Errorf("%w: row %d candidates %d,%d violate (value desc, index asc) order: (%v,%d) then (%v,%d)",
					ErrShape, i, x-1, x, pv, pj, v, j)
			}
			pv, pj = v, j
			g.colIdx[p] = int32(j)
			g.score[p] = v
			p++
		}
	}
	g.rowPtr[len(rows)] = p
	return g, nil
}

// graphFromHeaps finalizes one heap per graph row into CSR storage, rows in
// parallel (each owns its heap and its CSR span). The heap contents are
// copied out, so the (pooled) heap backing can be released afterwards.
func graphFromHeaps(heaps []minHeap, width int) (*CandGraph, error) {
	rows := len(heaps)
	rowPtr := make([]int64, rows+1)
	for i := range heaps {
		rowPtr[i+1] = rowPtr[i] + int64(len(heaps[i].vals))
	}
	nnz := rowPtr[rows]
	if nnz > math.MaxInt32 {
		// CSCView's position join stores CSR offsets as int32.
		return nil, fmt.Errorf("%w: candidate graph with %d edges exceeds int32 addressing", ErrShape, nnz)
	}
	g := &CandGraph{
		rows:   rows,
		cols:   width,
		rowPtr: rowPtr,
		colIdx: make([]int32, nnz),
		score:  make([]float64, nnz),
	}
	parallelRows(rows, func(i int) {
		tk := heaps[i].finalize()
		p := rowPtr[i]
		copy(g.score[p:], tk.Values)
		for x, j := range tk.Indices {
			g.colIdx[p+int64(x)] = int32(j)
		}
	})
	return g, nil
}
