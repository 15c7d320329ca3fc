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
//     with it in one of its DefaultReplicas nearest cells. On clustered
//     inputs the end-to-end Hits@1 stays within a bounded delta of the
//     exhaustive engine (see conformance/shard_test.go).
//   - Determinism: one seed drives sampling, training and assignment;
//     worker scheduling never affects results (per-shard outputs land in
//     shard-indexed slots and merge in deterministic order).
package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"entmatcher/internal/ann"
	"entmatcher/internal/matrix"
)

// ErrConfig reports an invalid shard configuration.
var ErrConfig = errors.New("shard: invalid configuration")

// Config parameterizes the partitioner. Everything else is fixed: each
// source row is matched in its min(DefaultReplicas, Shards) nearest cells,
// min(GOMAXPROCS, Shards) sub-builds run at once (peak memory scales with
// that × per-shard tables and graphs), and the quantizer trains for six
// Lloyd rounds on min(max(32768, Shards), targets) sampled target rows.
type Config struct {
	// Shards is the number of co-clustered cells (required, >= 1; clamped
	// to the target rows). Shards=1 degenerates to the exhaustive build,
	// bit-identically.
	Shards int
	// Seed drives sampling, training and assignment.
	Seed int64
}

// DefaultReplicas is how many nearest cells each SOURCE row is matched in
// (clamped to Shards). Replication is the recall lever: a source row near a
// cell boundary also competes in the neighboring shard, and the
// reconciliation merge keeps its best candidates across all of them.
const DefaultReplicas = 2

// sampleFloor is the quantizer's training sample size, raised to Shards and
// capped at the target rows.
const sampleFloor = 32 << 10

// shards checks the configuration and returns the shard count for a task
// with tgtRows target rows.
func (c Config) shards(tgtRows int) (int, error) {
	if c.Shards < 1 {
		return 0, fmt.Errorf("%w: Shards %d < 1", ErrConfig, c.Shards)
	}
	return min(c.Shards, tgtRows), nil
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
	shards, err := cfg.shards(tgtRows)
	if err != nil {
		return nil, err
	}
	a := &Assignment{
		Shards: shards,
		Src:    make([][]int, shards),
		Tgt:    make([][]int, shards),
	}
	if shards == 1 {
		// Degenerate co-clustering: the single shard is the whole task. No
		// quantizer is trained, so Shards=1 cannot even in principle diverge
		// from the exhaustive build.
		a.Src[0] = identityIDs(srcRows)
		a.Tgt[0] = identityIDs(tgtRows)
		return a, nil
	}

	cent, err := trainQuantizer(ctx, tgt, tgtRows, shards, cfg.Seed)
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
	if err := assignRows(ctx, src, dim, min(DefaultReplicas, shards), cent, cnorm, func(row int, cells []int) {
		for _, c := range cells {
			a.Src[c] = append(a.Src[c], row)
		}
	}); err != nil {
		return nil, err
	}
	return a, nil
}

// trainQuantizer gathers a seeded ascending sample of the target table and
// trains the k-means coarse quantizer of the given number of cells on it.
func trainQuantizer(ctx context.Context, tgt matrix.RowsReader, tgtRows, shards int, seed int64) (*matrix.Dense, error) {
	sampleSize := min(max(sampleFloor, shards), tgtRows)
	var sample *matrix.Dense
	if sampleSize == tgtRows {
		var err error
		if sample, err = matrix.GatherRows(tgt, identityIDs(tgtRows)); err != nil {
			return nil, err
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		pick := rng.Perm(tgtRows)[:sampleSize]
		sort.Ints(pick)
		var err error
		if sample, err = matrix.GatherRows(tgt, pick); err != nil {
			return nil, err
		}
	}
	// Seed+1 decorrelates training randomness from the sampling permutation,
	// mirroring internal/ann's forward/reverse seed split.
	return ann.TrainCentroids(ctx, sample, shards, seed+1)
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
