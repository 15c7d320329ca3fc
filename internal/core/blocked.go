package core

import (
	"fmt"
	"time"

	"entmatcher/internal/matrix"
)

// SinkhornBlocked is the scalability direction the paper points to in § 6
// (4) via ClusterEA [15]: "scalable entity alignment with stochastic
// training and normalized mini-batch similarities". Entities are first
// partitioned into corresponding mini-batches (here by mutual top-candidate
// clustering around pivot columns), the Sinkhorn operation runs inside each
// batch, and results are concatenated. Memory drops from O(n²) working set
// to O(n·B) per batch; accuracy approaches full Sinkhorn as batches align
// with the true correspondence structure.
type SinkhornBlocked struct {
	// BatchSize is the target number of columns per mini-batch.
	BatchSize int
	// L is the Sinkhorn iteration count inside each batch.
	L int
	// Tau is the softmax temperature.
	Tau float64
}

// NewSinkhornBlocked returns the mini-batch Sinkhorn matcher.
func NewSinkhornBlocked(batchSize, l int) *SinkhornBlocked {
	return &SinkhornBlocked{BatchSize: batchSize, L: l, Tau: DefaultSinkhornTau}
}

// Name returns "Sink.-mb" (mini-batch).
func (*SinkhornBlocked) Name() string { return "Sink.-mb" }

// partitionBatches groups columns into batches of ~batchSize by pivot
// popularity and assigns each row to the batch of its pivot (best) column.
// This is the cheap stand-in for ClusterEA's learned partition: corresponding
// entities land in the same batch whenever their top candidate does. Columns
// are ranked by (descending count, ascending column index) with
// matrix.OrderDesc and the round-robin rank assignment spreads popular pivots
// evenly, so the partition is a pure function of rowBest — dense and
// streaming runs that agree on the argmaxes produce identical batches.
func partitionBatches(rowBest []int, cols, batchSize int) (batchRows, batchCols [][]int) {
	popularity := make([]float64, cols) // counts, exact as doubles
	for _, j := range rowBest {
		if j >= 0 {
			popularity[j]++
		}
	}
	colOrder := make([]int32, cols)
	matrix.OrderDesc(colOrder, popularity)
	batchOf := make([]int, cols)
	numBatches := (cols + batchSize - 1) / batchSize
	batchCols = make([][]int, numBatches)
	for rank, j := range colOrder {
		b := rank % numBatches // round-robin spreads popular pivots evenly
		batchOf[j] = b
		batchCols[b] = append(batchCols[b], int(j))
	}
	batchRows = make([][]int, numBatches)
	for i, j := range rowBest {
		if j < 0 {
			continue
		}
		b := batchOf[j]
		batchRows[b] = append(batchRows[b], i)
	}
	return batchRows, batchCols
}

// Match partitions the task into mini-batches and solves each with the
// Sinkhorn operation plus greedy matching. The run's tile source — the
// streaming engine, or a tiled view of the dense matrix — supplies both
// inputs: the pivot argmaxes come from one fused pass, and each mini-batch
// sub-matrix from TileSource.Block, so on a streaming run the dense score
// matrix is never materialized — peak memory is the largest batch, exactly
// the O(n·B) working set ClusterEA targets.
func (m *SinkhornBlocked) Match(ctx *Context) (*Result, error) {
	st, err := streamOf(ctx)
	if err != nil {
		return nil, err
	}
	if m.BatchSize < 2 {
		return nil, fmt.Errorf("Sink.-mb: batch size must be at least 2, got %d", m.BatchSize)
	}
	if m.L < 0 || m.Tau <= 0 {
		return nil, fmt.Errorf("Sink.-mb: invalid L=%d tau=%v", m.L, m.Tau)
	}
	start := time.Now()
	cc := ctx.Cancellation()
	rows, cols := st.Dims()
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("Sink.-mb: empty matrix %d×%d", rows, cols)
	}
	best := matrix.NewRunningArgmax(rows)
	if err := st.StreamTiles(cc, best); err != nil {
		return nil, err
	}
	realCols := cols - ctx.NumDummies

	batchRows, batchCols := partitionBatches(best.Idx, cols, m.BatchSize)
	numBatches := len(batchCols)

	pairs := make([]Pair, 0, rows)
	var abstained []int
	var maxBatchBytes int64
	tr := SinkhornTransform{L: m.L, Tau: m.Tau}
	for b := 0; b < numBatches; b++ {
		// Mini-batches are natural cancellation checkpoints: each batch is a
		// bounded O(B²·L) unit of work.
		if err := ctxErr(cc); err != nil {
			return nil, err
		}
		rIDs, cIDs := batchRows[b], batchCols[b]
		if len(rIDs) == 0 {
			continue
		}
		if len(cIDs) == 0 {
			abstained = append(abstained, rIDs...)
			continue
		}
		sub, err := st.Block(cc, rIDs, cIDs)
		if err != nil {
			return nil, err
		}
		if bts := sub.SizeBytes() * 2; bts > maxBatchBytes {
			maxBatchBytes = bts
		}
		norm, err := tr.TransformContext(cc, sub)
		if err != nil {
			return nil, err
		}
		vals, idx := norm.RowMax()
		for x, y := range idx {
			if y < 0 {
				abstained = append(abstained, rIDs[x])
				continue
			}
			j := cIDs[y]
			if j >= realCols {
				abstained = append(abstained, rIDs[x])
				continue
			}
			pairs = append(pairs, Pair{Source: rIDs[x], Target: j, Score: vals[x]})
		}
	}
	return &Result{
		Matcher:    m.Name(),
		Pairs:      pairs,
		Abstained:  abstained,
		Elapsed:    time.Since(start),
		ExtraBytes: maxBatchBytes + int64(rows+2*cols)*8,
	}, nil
}
