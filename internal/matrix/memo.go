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
// It is the one CandGraphProducer in this module.
//
// One part comes without a build of its own: every reverse build the memo
// makes while no means are held asks for KCol = 1 as well, whatever the
// source, and the builder returns those means as the reverse build's
// by-product (StreamParts reads them off the reverse graph's row heads,
// SearchedParts off the reverse search). So RInf or Hun.'s transpose
// fallback before CSLS costs one tile pass or reverse search instead of two;
// CSLS first still pays its own, because no reverse graph is held yet and it
// does not ask for one. Nothing else is derived: a held part answers only
// its identical key.
//
// A different budget replaces its slot, derived means included, which bounds
// the memo to one forward graph, one reverse graph and one means vector.
// Every part handed out is the one the un-memoized BuildCandGraph* call would
// have returned, and is shared: callers must not mutate it (CandGraph.Row's
// contract; clone for scratch).
//
// One build runs at a time. The lock is a one-slot channel so a caller
// waiting behind a build still returns on its own context; a failed or
// cancelled build stores nothing and the next caller builds. Tile streams
// and blocks pass straight through to the wrapped source. A PadCols view of
// the memo (dummy columns: a different score matrix) is not a producer, so
// graphs over it are built from its tiles and never memoized; each such
// build is one of the memo's tile passes.
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
// builds and direct StreamTiles calls alike. Derived counts k = 1 means
// returned alongside a reverse build rather than by a build of their own.
// Bytes is what the slots hold, derived means included.
type MemoStats struct {
	Builds  int64 `json:"builds"`
	Hits    int64 `json:"hits"`
	Passes  int64 `json:"passes"`
	Derived int64 `json:"derived"`
	Bytes   int64 `json:"bytes"`
}

var (
	_ CandGraphProducer = (*GraphMemo)(nil)
	_ PartsProducer     = (*GraphMemo)(nil)
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
// building and storing whichever are missing.
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
	// A reverse build made while no means are held carries the k = 1 means.
	along := miss.CRev > 0 && (miss.KCol == 1 || miss.KCol == 0 && m.means == nil)
	if along {
		miss.KCol = 1
	}
	if miss == (GraphRequest{}) {
		m.hits.Add(1)
	} else {
		built, err := m.build(ctx, miss)
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
		if along {
			m.derived.Add(1)
		}
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

// build produces the missing parts from the wrapped source: exactly those
// through its parts entry point, or in one StreamParts pass (a source with
// only the three CandGraphProducer methods is streamed like a plain one).
func (m *GraphMemo) build(ctx context.Context, miss GraphRequest) (GraphParts, error) {
	if p, ok := m.src.(PartsProducer); ok {
		return p.ProduceParts(ctx, miss)
	}
	m.passes.Add(1)
	return StreamParts(ctx, m.src, miss)
}

// ProduceCandGraph implements CandGraphProducer.
func (m *GraphMemo) ProduceCandGraph(ctx context.Context, c int) (*CandGraph, error) {
	return partsCandGraph(ctx, m, c)
}

// ProduceCandGraphs implements CandGraphProducer.
func (m *GraphMemo) ProduceCandGraphs(ctx context.Context, c, cRev int) (fwd, rev *CandGraph, err error) {
	return partsCandGraphs(ctx, m, c, cRev)
}

// ProduceCandGraphWithColMeans implements CandGraphProducer.
func (m *GraphMemo) ProduceCandGraphWithColMeans(ctx context.Context, c, kCol int) (*CandGraph, []float64, error) {
	return partsCandGraphWithColMeans(ctx, m, c, kCol)
}
