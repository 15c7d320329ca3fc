package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"entmatcher/internal/matrix"
	"entmatcher/internal/sim"
)

// Source wraps an exhaustive tile source with sharded candidate-graph
// production. It implements matrix.TileSource by delegation — exhaustive
// tile streams and exact Block gathers still hit the inner source — and
// matrix.CandGraphProducer by partitioned sub-builds, so the Build* entry
// points transparently route every sparse matcher through the shard pool.
//
// As with ann.Source, a dummy-padded (unmatchable) view of it
// (matrix.PadCols) hides the producer, streams exhaustively and stays exact.
type Source struct {
	inner  matrix.TileSource
	src    matrix.RowsReader
	tgt    matrix.RowsReader
	metric sim.Metric
	cfg    Config

	mu  sync.Mutex
	asg *Assignment
	err error
}

// NewSource validates shapes and wraps inner. src and tgt are the row
// spaces the partitioner and the per-shard gathers read — for in-RAM runs
// the stream's prepared tables, for out-of-core runs the snapshot slabs —
// and must be the same tables inner scores (already normalized for cosine).
func NewSource(inner matrix.TileSource, src, tgt matrix.RowsReader, metric sim.Metric, cfg Config) (*Source, error) {
	if inner == nil {
		return nil, fmt.Errorf("%w: nil inner tile source", ErrConfig)
	}
	if src == nil || tgt == nil {
		return nil, fmt.Errorf("%w: nil table reader", ErrConfig)
	}
	rows, cols := inner.Dims()
	sr, sd := src.Dims()
	tr, td := tgt.Dims()
	if sr != rows || tr != cols {
		return nil, fmt.Errorf("%w: inner source is %dx%d but tables are %d and %d rows",
			ErrConfig, rows, cols, sr, tr)
	}
	if sd != td {
		return nil, fmt.Errorf("%w: table dims differ: %d vs %d", ErrConfig, sd, td)
	}
	if _, err := cfg.shards(tr); err != nil {
		return nil, err
	}
	return &Source{inner: inner, src: src, tgt: tgt, metric: metric, cfg: cfg}, nil
}

// Dims delegates to the wrapped source.
func (s *Source) Dims() (rows, cols int) { return s.inner.Dims() }

// StreamTiles delegates to the wrapped source: an explicit exhaustive
// stream stays exhaustive.
func (s *Source) StreamTiles(ctx context.Context, consumers ...matrix.TileConsumer) error {
	return s.inner.StreamTiles(ctx, consumers...)
}

// Block delegates to the wrapped source: validation-pair scoring stays
// exact regardless of sharding.
func (s *Source) Block(ctx context.Context, rowIDs, colIDs []int) (*matrix.Dense, error) {
	return s.inner.Block(ctx, rowIDs, colIDs)
}

// Assignment returns the co-clustering, computing and caching it on first
// use. The partition is a pure function of (tables, Config), so one Source
// reuses it across forward/reverse/means productions.
func (s *Source) Assignment(ctx context.Context) (*Assignment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.asg == nil && s.err == nil {
		s.asg, s.err = Partition(ctx, s.src, s.tgt, s.cfg)
	}
	return s.asg, s.err
}

// ProduceParts implements matrix.PartsProducer. It runs the full sharded
// build for the requested parts only: partition, per-shard sub-builds on a
// bounded worker pool, then the deterministic reconciliation merge back to
// global id spaces. Budgets follow the producer contract: clamped here to
// the global shape, re-clamped per shard to the sub-shape.
func (s *Source) ProduceParts(ctx context.Context, req matrix.GraphRequest) (matrix.GraphParts, error) {
	srcRows, _ := s.src.Dims()
	tgtRows, _ := s.tgt.Dims()
	req.C = min(req.C, tgtRows)
	req.CRev = min(req.CRev, srcRows)
	req.KCol = min(req.KCol, srcRows)
	asg, err := s.Assignment(ctx)
	if err != nil {
		return matrix.GraphParts{}, err
	}

	// results[i] is shard i's sub-build, in its local id spaces.
	results := make([]*matrix.GraphParts, asg.Shards)
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, min(runtime.GOMAXPROCS(0), asg.Shards))
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for i := 0; i < asg.Shards; i++ {
		if len(asg.Src[i]) == 0 || len(asg.Tgt[i]) == 0 {
			// Nothing to score: sources here have their other replicas;
			// targets here keep empty reverse rows / zero means.
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-gctx.Done():
				return
			}
			defer func() { <-sem }()
			res, err := s.buildShard(gctx, asg, i, req)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				cancel()
				return
			}
			results[i] = &res
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return matrix.GraphParts{}, firstErr
	}
	if err := ctx.Err(); err != nil {
		return matrix.GraphParts{}, err
	}

	var out matrix.GraphParts
	if req.C > 0 {
		if out.Fwd, err = mergeForward(asg, results, srcRows, tgtRows, req.C); err != nil {
			return matrix.GraphParts{}, err
		}
	}
	if req.CRev > 0 {
		if out.Rev, err = scatterReverse(asg, results, srcRows, tgtRows); err != nil {
			return matrix.GraphParts{}, err
		}
	}
	if req.KCol > 0 {
		out.ColMeans = make([]float64, tgtRows)
		for i, res := range results {
			if res == nil {
				continue
			}
			for t, g := range asg.Tgt[i] {
				out.ColMeans[g] = res.ColMeans[t]
			}
		}
	}
	return out, nil
}

// buildShard gathers shard i's sub-tables and runs the exhaustive builder on
// them for the requested parts. The result is
// in the shard's local id spaces (forward rows in local src order over the
// local tgt space, reverse rows and means per local tgt row). The gathered
// windows are row-gathers of the prepared tables, so every score a sub-build
// computes is bit-identical to the score the exhaustive engine computes for
// the same (source, target) pair.
func (s *Source) buildShard(ctx context.Context, asg *Assignment, i int, req matrix.GraphRequest) (matrix.GraphParts, error) {
	srcIDs, tgtIDs := asg.Src[i], asg.Tgt[i]
	srcTab, err := matrix.GatherRows(s.src, srcIDs)
	if err != nil {
		return matrix.GraphParts{}, fmt.Errorf("shard %d: gather src: %w", i, err)
	}
	tgtTab, err := matrix.GatherRows(s.tgt, tgtIDs)
	if err != nil {
		return matrix.GraphParts{}, fmt.Errorf("shard %d: gather tgt: %w", i, err)
	}
	ls, err := sim.NewStreamPrepared(srcTab, tgtTab, s.metric)
	if err != nil {
		return matrix.GraphParts{}, fmt.Errorf("shard %d: %w", i, err)
	}
	req.KCol = min(req.KCol, len(srcIDs))
	res, err := matrix.StreamParts(ctx, ls, req)
	if err != nil {
		return matrix.GraphParts{}, fmt.Errorf("shard %d: %w", i, err)
	}
	return res, nil
}

// rowRef locates one source row's candidate list inside a shard result.
type rowRef struct {
	shard int32
	local int32
}

// mergeForward k-way-merges each source row's per-shard candidate lists
// into one global top-c row. Within a list, local->global column
// translation is monotone (shard target lists ascend), so each list stays
// in (value desc, global col asc) order; across lists target spaces are
// disjoint, so no duplicate columns arise and the standard max-head merge
// with ties to the smaller global column reproduces exactly the order the
// exhaustive heap finalization emits. At Shards=1 every row has one list
// with identity translation — the merge is a copy.
func mergeForward(asg *Assignment, results []*matrix.GraphParts, srcRows, tgtRows, c int) (*matrix.CandGraph, error) {
	refs := make([][]rowRef, srcRows)
	var nnzCap int
	for i, res := range results {
		if res == nil {
			continue
		}
		for r, g := range asg.Src[i] {
			refs[g] = append(refs[g], rowRef{shard: int32(i), local: int32(r)})
		}
		nnzCap += res.Fwd.NNZ()
	}
	// Shared backings keep the merge at two large allocations instead of
	// 2·srcRows small ones; NewCandGraph copies out of them.
	vals := make([]float64, 0, nnzCap)
	idxs := make([]int, 0, nnzCap)
	rows := make([]matrix.TopK, srcRows)
	type cursor struct {
		vals []float64
		cols []int32
		tgt  []int
		pos  int
	}
	var curs []cursor
	for g := 0; g < srcRows; g++ {
		curs = curs[:0]
		for _, ref := range refs[g] {
			res := results[ref.shard]
			cols, vs := res.Fwd.Row(int(ref.local))
			if len(cols) > 0 {
				curs = append(curs, cursor{vals: vs, cols: cols, tgt: asg.Tgt[ref.shard]})
			}
		}
		start := len(vals)
		for len(vals)-start < c {
			best := -1
			var bv float64
			var bj int
			for ci := range curs {
				cur := &curs[ci]
				if cur.pos >= len(cur.vals) {
					continue
				}
				v := cur.vals[cur.pos]
				j := cur.tgt[cur.cols[cur.pos]]
				if best < 0 || v > bv || (v == bv && j < bj) {
					best, bv, bj = ci, v, j
				}
			}
			if best < 0 {
				break
			}
			curs[best].pos++
			vals = append(vals, bv)
			idxs = append(idxs, bj)
		}
		rows[g] = matrix.TopK{Values: vals[start:], Indices: idxs[start:]}
	}
	return matrix.NewCandGraph(tgtRows, rows)
}

// scatterReverse translates each shard's reverse graph into the global id
// spaces. Every target row lives in exactly one shard, so rows scatter
// without merging; within a row, local->global source translation is
// monotone, preserving the (value desc, index asc) contract.
func scatterReverse(asg *Assignment, results []*matrix.GraphParts, srcRows, tgtRows int) (*matrix.CandGraph, error) {
	var nnzCap int
	for _, res := range results {
		if res != nil && res.Rev != nil {
			nnzCap += res.Rev.NNZ()
		}
	}
	vals := make([]float64, 0, nnzCap)
	idxs := make([]int, 0, nnzCap)
	rows := make([]matrix.TopK, tgtRows)
	// Deterministic scatter order (shard-major) is irrelevant to the result:
	// each global row is written exactly once.
	for i, res := range results {
		if res == nil || res.Rev == nil {
			continue
		}
		srcIDs := asg.Src[i]
		for t, g := range asg.Tgt[i] {
			cols, vs := res.Rev.Row(t)
			start := len(vals)
			for x, v := range vs {
				vals = append(vals, v)
				idxs = append(idxs, srcIDs[cols[x]])
			}
			rows[g] = matrix.TopK{Values: vals[start:], Indices: idxs[start:]}
		}
	}
	return matrix.NewCandGraph(srcRows, rows)
}
