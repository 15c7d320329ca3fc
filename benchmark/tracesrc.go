package main

import (
	"context"

	"entmatcher/internal/matrix"
)

// tracedSource separates candidate-graph production from the matcher that
// asks for it, without touching the program: it stands in for a run's tile
// source, answers the three CandGraphProducer entry points by delegating to
// matrix.BuildCandGraph* on the real source — which dispatches to the real
// source's own producer (ann, quant, shard) or streams it exhaustively, just
// as it would have without the wrapper — and opens a span per call.
// TestDecoratorTransparent pins that results are identical with and without it.
type tracedSource struct {
	inner matrix.TileSource
	rec   *recorder
	// span is the name recorded per producer call, e.g. "matrix.produce".
	span string
	// passes counts full tile passes over the scores: direct StreamTiles
	// calls, plus producer calls when inner has no producer of its own (each
	// exhaustive Build* streams the source exactly once).
	passes int
}

var (
	_ matrix.TileSource        = (*tracedSource)(nil)
	_ matrix.CandGraphProducer = (*tracedSource)(nil)
)

func (t *tracedSource) Dims() (rows, cols int) { return t.inner.Dims() }

func (t *tracedSource) StreamTiles(ctx context.Context, consumers ...matrix.TileConsumer) error {
	t.passes++
	return t.inner.StreamTiles(ctx, consumers...)
}

func (t *tracedSource) Block(ctx context.Context, rowIDs, colIDs []int) (*matrix.Dense, error) {
	return t.inner.Block(ctx, rowIDs, colIDs)
}

func (t *tracedSource) produce(fn func()) {
	if _, ok := t.inner.(matrix.CandGraphProducer); !ok {
		t.passes++
	}
	id := t.rec.begin(t.span)
	fn()
	t.rec.end(id)
}

func (t *tracedSource) ProduceCandGraph(ctx context.Context, c int) (g *matrix.CandGraph, err error) {
	t.produce(func() { g, err = matrix.BuildCandGraph(ctx, t.inner, c) })
	return g, err
}

func (t *tracedSource) ProduceCandGraphs(ctx context.Context, c, cRev int) (fwd, rev *matrix.CandGraph, err error) {
	t.produce(func() { fwd, rev, err = matrix.BuildCandGraphs(ctx, t.inner, c, cRev) })
	return fwd, rev, err
}

func (t *tracedSource) ProduceCandGraphWithColMeans(ctx context.Context, c, kCol int) (g *matrix.CandGraph, means []float64, err error) {
	t.produce(func() { g, means, err = matrix.BuildCandGraphWithColMeans(ctx, t.inner, c, kCol) })
	return g, means, err
}
