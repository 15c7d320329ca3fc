package matrix

import (
	"context"
	"sync/atomic"
)

// GraphMemo decorates a tile source with a memo of the candidate-graph
// parts last built from it, so matchers that share a prepared source share
// its graphs instead of each rebuilding them: per source it holds the last
// forward graph (keyed by clamped c), the last reverse graph (keyed by
// clamped cRev) and the last column top-k means (keyed by kCol), answers the
// three CandGraphProducer entry points from those, and on a miss builds
// only the parts it lacks — through the source's own PartsProducer, or in
// one exhaustive StreamParts pass carrying just the missing accumulators.
//
// What may be derived. A held part answers the identical key, and one part
// may be read off another: the kCol = 1 means are the reverse graph's row
// heads (means[j] = 0 + head_j, 0 for an empty row — heapMean's arithmetic
// on a one-entry heap, so a -0.0 head still becomes +0.0), whenever the
// reverse graph is held or built by the same call and the wrapped source
// says its heads are its columns' best scores at every budget:
//
//   - a plain tile source (the memo's own StreamParts pass) and shard.Source,
//     always: the width-cRev and the width-1 column heaps see the same offers
//     in the same order, and both keep the first-k prefix of (value desc,
//     index asc);
//   - ann.Source while SQ8 is off: the probed cells, hence the scored
//     candidates, do not depend on the budget;
//   - quant.Source, ann.Source with SQ8 on, and any producer that does not
//     implement RevHeadProducer, never: the SQ8 re-rank pool is
//     factor × budget, so a wider search can surface a better head.
//
// The source is asked per request, so EnableQuant after the memo was created
// is honoured. Nothing else is derived: a wider graph is never truncated (the
// SQ8 pool again) and kCol > 1 means are never summed from a reverse row
// (ColTopKAcc.Means sums in heap-array order, a finalized row is sorted).
// The order matters: RInf or Hun.'s transpose fallback before CSLS costs one
// tile pass instead of two; CSLS first still pays its own pass, because no
// reverse graph is held yet and it does not ask for one.
//
// A different budget replaces its slot, derived means included, which bounds
// the memo to one forward graph, one reverse graph and one means vector.
// Every part handed out is the one the un-memoized BuildCandGraph* call would
// have returned, and is shared: callers must not mutate it (CandGraph.Row's
// contract; clone for scratch).
//
// One build runs at a time. The lock is a one-slot channel so a caller
// waiting behind a build still returns on its own context; a failed or
// cancelled build stores nothing and the next caller builds. Tile streams,
// blocks and padded views pass straight through to the wrapped source, so a
// view with virtual dummy columns (a different score matrix) is never
// memoized.
type GraphMemo struct {
	src  TileSource
	lock chan struct{} // holds one token while the slots are read or rebuilt

	// The slots, guarded by lock. A nil part is absent.
	fwd, rev   *CandGraph
	means      []float64
	fwdC, revC int
	meansK     int

	builds, hits, passes, derived, bytes atomic.Int64
}

// MemoStats counts a memo's work. Builds and Hits count producer calls:
// one that had to build at least one part, one answered without building.
// Passes counts full tile passes over the wrapped source — exhaustive
// builds and direct StreamTiles calls alike. Derived counts parts answered
// by derivation (means read off the reverse graph) rather than by a build or
// an exact-key hit. Bytes is what the slots hold, derived means included.
type MemoStats struct {
	Builds  int64 `json:"builds"`
	Hits    int64 `json:"hits"`
	Passes  int64 `json:"passes"`
	Derived int64 `json:"derived"`
	Bytes   int64 `json:"bytes"`
}

// RevHeadProducer is a PartsProducer that states whether the head of every
// reverse-graph row is, at every budget, the score its KCol = 1 request
// selects for that column. The memo derives those means from a held reverse
// graph only over a source that says so; see GraphMemo for who may.
type RevHeadProducer interface {
	PartsProducer
	RevHeadIsColBest() bool
}

var (
	_ CandGraphProducer = (*GraphMemo)(nil)
	_ PartsProducer     = (*GraphMemo)(nil)
	_ ColPadder         = (*GraphMemo)(nil)
)

// Memo wraps src in an empty candidate-graph memo.
func Memo(src TileSource) *GraphMemo {
	return &GraphMemo{src: src, lock: make(chan struct{}, 1)}
}

// Source returns the wrapped, un-memoized tile source.
func (m *GraphMemo) Source() TileSource { return m.src }

// Dims implements TileSource by delegation.
func (m *GraphMemo) Dims() (rows, cols int) { return m.src.Dims() }

// StreamTiles implements TileSource by delegation, counting the pass.
func (m *GraphMemo) StreamTiles(ctx context.Context, consumers ...TileConsumer) error {
	m.passes.Add(1)
	return m.src.StreamTiles(ctx, consumers...)
}

// Block implements TileSource by delegation.
func (m *GraphMemo) Block(ctx context.Context, rowIDs, colIDs []int) (*Dense, error) {
	return m.src.Block(ctx, rowIDs, colIDs)
}

// PadCols implements ColPadder: the padded view is built on the wrapped
// source and shares nothing with the memo.
func (m *GraphMemo) PadCols(n int, score float64) TileSource { return PadCols(m.src, n, score) }

// Stats snapshots the counters; it never waits for a build.
func (m *GraphMemo) Stats() MemoStats {
	return MemoStats{
		Builds: m.builds.Load(), Hits: m.hits.Load(), Passes: m.passes.Load(),
		Derived: m.derived.Load(), Bytes: m.bytes.Load(),
	}
}

// acquire takes the lock unless ctx ends first.
func (m *GraphMemo) acquire(ctx context.Context) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	select {
	case m.lock <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Forget drops every held part, waiting out a build in flight. It is cache
// invalidation for callers that must time a cold build; graphs already
// handed out stay valid.
func (m *GraphMemo) Forget() {
	m.lock <- struct{}{}
	m.fwd, m.rev, m.means = nil, nil, nil
	m.bytes.Store(0)
	<-m.lock
}

// ProduceParts implements PartsProducer: the requested parts from the slots,
// building and storing whichever are missing and can not be derived.
func (m *GraphMemo) ProduceParts(ctx context.Context, req GraphRequest) (GraphParts, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rows, cols := m.src.Dims()
	req.C, req.CRev = min(req.C, cols), min(req.CRev, rows)
	if err := m.acquire(ctx); err != nil {
		return GraphParts{}, err
	}
	defer func() { <-m.lock }()

	var miss GraphRequest
	if req.C > 0 && (m.fwd == nil || m.fwdC != req.C) {
		miss.C = req.C
	}
	if req.CRev > 0 && (m.rev == nil || m.revC != req.CRev) {
		miss.CRev = req.CRev
	}
	if req.KCol > 0 && (m.means == nil || m.meansK != req.KCol) {
		miss.KCol = req.KCol
	}
	// Missing k = 1 means come off the reverse graph this call holds or is
	// about to build, when the source allows it.
	derive := miss.KCol == 1 && (m.rev != nil || req.CRev > 0) && m.revHeadIsColBest()
	if derive {
		miss.KCol = 0
	}
	if miss == (GraphRequest{}) {
		m.hits.Add(1)
	} else {
		built, err := m.build(ctx, req, miss)
		if err != nil {
			return GraphParts{}, err
		}
		if miss.C > 0 {
			m.fwd, m.fwdC = built.Fwd, miss.C
		}
		if miss.CRev > 0 {
			m.rev, m.revC = built.Rev, miss.CRev
		}
		if miss.KCol > 0 {
			m.means, m.meansK = built.ColMeans, miss.KCol
		}
		m.builds.Add(1)
	}
	if derive {
		m.means, m.meansK = revHeadMeans(m.rev), 1
		m.derived.Add(1)
	}
	held := int64(len(m.means)) * 8
	for _, g := range []*CandGraph{m.fwd, m.rev} {
		if g != nil {
			held += g.SizeBytes()
		}
	}
	m.bytes.Store(held)
	var out GraphParts
	if req.C > 0 {
		out.Fwd = m.fwd
	}
	if req.CRev > 0 {
		out.Rev = m.rev
	}
	if req.KCol > 0 {
		out.ColMeans = m.means
	}
	return out, nil
}

// revHeadIsColBest reports whether the wrapped source lets k = 1 means be
// read off its reverse graph: a plain tile source is streamed by the memo
// itself and always does, a producer only if it says so.
func (m *GraphMemo) revHeadIsColBest() bool {
	switch p := m.src.(type) {
	case RevHeadProducer:
		return p.RevHeadIsColBest()
	case PartsProducer, CandGraphProducer:
		return false
	}
	return true
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

// build produces the missing parts of req from the wrapped source. A source
// with a parts entry point builds exactly those and a plain tile source
// streams them in one pass. A producer with only the three-method surface
// cannot build a reverse graph or means alone, so it is asked for the calls
// that cover the missing parts; the forward graph that comes along is
// dropped when the slot already holds one.
func (m *GraphMemo) build(ctx context.Context, req, miss GraphRequest) (GraphParts, error) {
	switch p := m.src.(type) {
	case PartsProducer:
		return p.ProduceParts(ctx, miss)
	case CandGraphProducer:
		var out GraphParts
		var err error
		if miss.CRev > 0 {
			out.Fwd, out.Rev, err = p.ProduceCandGraphs(ctx, req.C, miss.CRev)
		}
		if err == nil && miss.KCol > 0 {
			out.Fwd, out.ColMeans, err = p.ProduceCandGraphWithColMeans(ctx, req.C, miss.KCol)
		}
		if err == nil && miss.C > 0 && out.Fwd == nil {
			out.Fwd, err = p.ProduceCandGraph(ctx, miss.C)
		}
		return out, err
	}
	m.passes.Add(1)
	return StreamParts(ctx, m.src, miss)
}

// ProduceCandGraph implements CandGraphProducer.
func (m *GraphMemo) ProduceCandGraph(ctx context.Context, c int) (*CandGraph, error) {
	return PartsCandGraph(ctx, m, c)
}

// ProduceCandGraphs implements CandGraphProducer.
func (m *GraphMemo) ProduceCandGraphs(ctx context.Context, c, cRev int) (fwd, rev *CandGraph, err error) {
	return PartsCandGraphs(ctx, m, c, cRev)
}

// ProduceCandGraphWithColMeans implements CandGraphProducer.
func (m *GraphMemo) ProduceCandGraphWithColMeans(ctx context.Context, c, kCol int) (*CandGraph, []float64, error) {
	return PartsCandGraphWithColMeans(ctx, m, c, kCol)
}
