// Package shard partitions an alignment task into co-clustered sub-problems
// — the ClusterEA-style generalization of mini-batch blocking that both
// large-scale EA surveys identify as the route past the memory wall. Both
// corpora are assigned to cells of one IVF-style coarse quantizer (trained
// with the same k-means machinery as internal/ann, over the target table);
// each cell becomes a shard holding the target rows it owns plus every
// source row whose nearest cells include it. The sparse candidate-graph
// construction then runs per shard on a bounded worker pool — each shard's
// working set is a pair of gathered sub-tables, so peak memory is governed
// by shards and workers, not by the corpus — and a reconciliation pass
// merges the per-shard graphs into one global CSR graph on which the
// requested sparse collective matcher (Dijkstra/JV Hungarian, RInf,
// Sinkhorn, …) re-resolves targets claimed by rows from different shards.
//
// Contracts, pinned by internal/conformance:
//   - Shards=1 produces graphs bit-identical to the exhaustive in-RAM
//     builders (the single shard is the whole task, gathered in order, run
//     through the same kernels and the same heap tie-breaking).
//   - Shards>1 is approximate: a source row only sees targets co-clustered
//     with it in one of its Replicas nearest cells. On clustered inputs the
//     end-to-end Hits@1 stays within a bounded delta of the exhaustive
//     engine (see conformance/shard_test.go).
//   - Determinism: one seed drives sampling, training and assignment;
//     worker scheduling never affects results (per-shard outputs land in
//     shard-indexed slots and merge in deterministic order).
package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"entmatcher/internal/ann"
	"entmatcher/internal/matrix"
)

// Typed errors for errors.Is dispatch.
var (
	// ErrConfig reports an invalid shard configuration.
	ErrConfig = errors.New("shard: invalid configuration")
	// ErrDeadline reports a shard whose sub-build exceeded the per-shard
	// deadline (Config.ShardTimeout). The whole production fails — a merged
	// graph silently missing a shard would be wrong, not approximate.
	ErrDeadline = errors.New("shard: per-shard deadline exceeded")
)

// Config parameterizes the partitioner and the per-shard build pool.
type Config struct {
	// Shards is the number of co-clustered cells (required, >= 1).
	// Shards=1 degenerates to the exhaustive build, bit-identically.
	Shards int
	// Replicas is how many nearest cells each SOURCE row is matched in
	// (clamped to [1, Shards]; 0 = min(DefaultReplicas, Shards)). Replication
	// is the recall lever: a source row near a cell boundary also competes in
	// the neighboring shard, and the reconciliation merge keeps its best
	// candidates across all of them.
	Replicas int
	// Workers bounds how many shard sub-builds run concurrently
	// (0 = min(GOMAXPROCS, Shards)). Peak memory scales with Workers ×
	// (per-shard tables + per-shard graphs).
	Workers int
	// ShardTimeout is the per-shard context deadline for one sub-build
	// (0 = none). A shard that exceeds it fails the production with
	// ErrDeadline.
	ShardTimeout time.Duration
	// SampleSize bounds the quantizer training sample (0 = 32768).
	SampleSize int
	// Iters is the Lloyd iteration count (0 = 6).
	Iters int
	// Seed drives sampling, training and assignment.
	Seed int64
}

// DefaultReplicas is the replication factor a zero Replicas resolves to.
const DefaultReplicas = 2

const (
	defaultSampleSize = 32 << 10
	defaultIters      = 6
)

// withDefaults clamps and defaults the configuration for a task with
// tgtRows target rows.
func (c Config) withDefaults(tgtRows int) (Config, error) {
	if c.Shards < 1 {
		return c, fmt.Errorf("%w: Shards %d < 1", ErrConfig, c.Shards)
	}
	if c.Shards > tgtRows {
		c.Shards = tgtRows
	}
	if c.Replicas == 0 {
		c.Replicas = DefaultReplicas
	}
	if c.Replicas < 1 {
		return c, fmt.Errorf("%w: Replicas %d < 1", ErrConfig, c.Replicas)
	}
	if c.Replicas > c.Shards {
		c.Replicas = c.Shards
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		return c, fmt.Errorf("%w: Workers %d < 1", ErrConfig, c.Workers)
	}
	if c.Workers > c.Shards {
		c.Workers = c.Shards
	}
	if c.SampleSize == 0 {
		c.SampleSize = defaultSampleSize
	}
	if c.SampleSize < c.Shards {
		c.SampleSize = c.Shards
	}
	if c.Iters == 0 {
		c.Iters = defaultIters
	}
	if c.ShardTimeout < 0 {
		return c, fmt.Errorf("%w: negative ShardTimeout %v", ErrConfig, c.ShardTimeout)
	}
	return c, nil
}

// Assignment is a computed co-clustering: per-shard ascending row-ID lists.
// Target lists partition [0, tgtRows); source lists cover [0, srcRows) with
// each row appearing in its Replicas nearest shards.
type Assignment struct {
	// Shards is the effective shard count after clamping.
	Shards int
	// Src[s] lists the source rows matched in shard s, ascending.
	Src [][]int
	// Tgt[s] lists the target rows owned by shard s, ascending.
	Tgt [][]int
}

// assignWindow bounds the resident row window of the assignment pass, so
// partitioning an out-of-core table stays O(window·d) regardless of corpus
// size.
const assignWindow = 8192

// Partition trains the coarse quantizer on a seeded sample of the target
// table and assigns both corpora to its cells: each target row to its
// nearest cell, each source row to its Replicas nearest cells. Tables are
// consumed through matrix.RowsReader in bounded windows, so the pass works
// identically over resident tables and snapshot slabs.
func Partition(ctx context.Context, src, tgt matrix.RowsReader, cfg Config) (*Assignment, error) {
	tgtRows, dim := tgt.Dims()
	srcRows, srcDim := src.Dims()
	if srcDim != dim {
		return nil, fmt.Errorf("%w: table dims differ: %d vs %d", ErrConfig, srcDim, dim)
	}
	cfg, err := cfg.withDefaults(tgtRows)
	if err != nil {
		return nil, err
	}
	a := &Assignment{
		Shards: cfg.Shards,
		Src:    make([][]int, cfg.Shards),
		Tgt:    make([][]int, cfg.Shards),
	}
	if cfg.Shards == 1 {
		// Degenerate co-clustering: the single shard is the whole task. No
		// quantizer is trained, so Shards=1 cannot even in principle diverge
		// from the exhaustive build.
		a.Src[0] = identityIDs(srcRows)
		a.Tgt[0] = identityIDs(tgtRows)
		return a, nil
	}

	cent, err := trainQuantizer(ctx, tgt, tgtRows, dim, cfg)
	if err != nil {
		return nil, err
	}
	cnorm := ann.CentroidNormsHalf(cent)

	// Assign targets (nearest cell) and sources (Replicas nearest cells) in
	// bounded windows; within a window rows are assigned in parallel, then
	// appended in ascending row order so the lists are deterministic.
	if err := assignRows(ctx, tgt, dim, 1, cent, cnorm, func(row int, cells []int) {
		a.Tgt[cells[0]] = append(a.Tgt[cells[0]], row)
	}); err != nil {
		return nil, err
	}
	if err := assignRows(ctx, src, dim, cfg.Replicas, cent, cnorm, func(row int, cells []int) {
		for _, c := range cells {
			a.Src[c] = append(a.Src[c], row)
		}
	}); err != nil {
		return nil, err
	}
	return a, nil
}

// trainQuantizer gathers a seeded ascending sample of the target table and
// trains the k-means coarse quantizer on it.
func trainQuantizer(ctx context.Context, tgt matrix.RowsReader, tgtRows, dim int, cfg Config) (*matrix.Dense, error) {
	sampleSize := cfg.SampleSize
	if sampleSize > tgtRows {
		sampleSize = tgtRows
	}
	var sample *matrix.Dense
	if sampleSize == tgtRows {
		var err error
		if sample, err = matrix.GatherRows(tgt, identityIDs(tgtRows)); err != nil {
			return nil, err
		}
	} else {
		rng := rand.New(rand.NewSource(cfg.Seed))
		pick := rng.Perm(tgtRows)[:sampleSize]
		sort.Ints(pick)
		var err error
		if sample, err = matrix.GatherRows(tgt, pick); err != nil {
			return nil, err
		}
	}
	// Seed+1 decorrelates training randomness from the sampling permutation,
	// mirroring internal/ann's forward/reverse seed split.
	return ann.TrainCentroids(ctx, sample, cfg.Shards, sample.Rows(), cfg.Iters, cfg.Seed+1)
}

// assignRows streams a table in bounded windows and reports each row's p
// nearest cells, ascending row order.
func assignRows(ctx context.Context, table matrix.RowsReader, dim, p int, cent *matrix.Dense, cnorm []float64, emit func(row int, cells []int)) error {
	rows, _ := table.Dims()
	winBuf := matrix.GetTileBuf(assignWindow * dim)
	defer matrix.PutTileBuf(winBuf)
	cells := make([]int, assignWindow*p)
	for w := 0; w < rows; w += assignWindow {
		wn := assignWindow
		if wn > rows-w {
			wn = rows - w
		}
		if err := table.ReadRows(winBuf[:wn*dim], w, wn); err != nil {
			return err
		}
		if err := matrix.ParallelRowsCtx(ctx, wn, func(i int) {
			row := winBuf[i*dim : (i+1)*dim]
			if p == 1 {
				cells[i] = ann.NearestCell(row, cent, cnorm)
			} else {
				ann.NearestCells(row, cent, cnorm, cells[i*p:(i+1)*p])
			}
		}); err != nil {
			return err
		}
		for i := 0; i < wn; i++ {
			emit(w+i, cells[i*p:(i+1)*p])
		}
	}
	return nil
}

func identityIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
