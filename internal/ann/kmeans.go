package ann

import (
	"context"
	"math/rand"
	"sort"

	"entmatcher/internal/matrix"
)

// This file holds the coarse quantizer of the IVF index: k-means over a
// deterministic sample of the corpus, seeded with k-means++ (Arthur &
// Vassilvitskii 2007) and refined by parallel Lloyd's iterations. Everything
// is driven by a single seeded rand.Rand plus order-fixed reductions, so a
// (data, config) pair always trains the identical quantizer — the
// determinism contract the conformance suite pins.
//
// Distances use the identity ‖x−c‖² = ‖x‖² + ‖c‖² − 2⟨x,c⟩ so the inner loop
// is the shared matrix.Dot4 kernel — the same kernel, and the same bits on
// every build, that scores every streamed tile.

// lloydIters bounds the Lloyd refinement: with k-means++ seeding the
// partition stabilizes in a handful of rounds, and the refinement stops
// early once a round leaves every assignment unchanged.
const lloydIters = 6

// trainCentroids returns k centroids of data learned on a sampleSize-point
// sample. Callers pass arguments already clamped (1 <= k <= sampleSize <=
// data.Rows()).
func trainCentroids(ctx context.Context, data *matrix.Dense, k, sampleSize int, rng *rand.Rand) (*matrix.Dense, error) {
	n, d := data.Rows(), data.Cols()
	sample := data
	if sampleSize < n {
		pick := rng.Perm(n)[:sampleSize]
		// Ascending row order keeps the gather cache-friendly; the sampled
		// set (and hence the trained quantizer) is unaffected.
		sort.Ints(pick)
		sample = data.SelectRows(pick)
	}
	s := sample.Rows()

	// Squared norms of the sample, reused by seeding and assignment.
	snorm := make([]float64, s)
	for i := 0; i < s; i++ {
		row := sample.Row(i)
		snorm[i] = matrix.Dot4(row, row)
	}

	cent := matrix.New(k, d)
	cnormHalf := make([]float64, k)

	// --- k-means++ seeding ---
	// First centroid uniform over the sample; each next one drawn with
	// probability proportional to the squared distance to the nearest chosen
	// centroid. When that distribution degenerates (all remaining mass zero:
	// fewer distinct points than k), fall back to deterministic round-robin
	// over the sample — duplicate centroids then simply yield empty cells.
	first := rng.Intn(s)
	copy(cent.Row(0), sample.Row(first))
	cnormHalf[0] = 0.5 * snorm[first]
	d2 := make([]float64, s)
	for i := 0; i < s; i++ {
		d2[i] = sqDist(snorm[i], sample.Row(i), cent.Row(0), cnormHalf[0])
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, v := range d2 {
			total += v
		}
		pick := c % s
		if total > 0 {
			r := rng.Float64() * total
			var acc float64
			pick = s - 1
			for i, v := range d2 {
				acc += v
				if acc >= r {
					pick = i
					break
				}
			}
		}
		copy(cent.Row(c), sample.Row(pick))
		cnormHalf[c] = 0.5 * snorm[pick]
		for i := 0; i < s; i++ {
			if dd := sqDist(snorm[i], sample.Row(i), cent.Row(c), cnormHalf[c]); dd < d2[i] {
				d2[i] = dd
			}
		}
	}

	// --- Lloyd's refinement ---
	// Assignment is embarrassingly parallel (each point writes its own
	// slot); the centroid update is a sequential sample-order reduction so
	// the sums — and therefore the next centroids — are bit-deterministic
	// regardless of GOMAXPROCS.
	assign := make([]int, s)
	prev := make([]int, s)
	sums := make([]float64, k*d)
	counts := make([]int, k)
	for it := 0; it < lloydIters; it++ {
		if err := matrix.ParallelRowsCtx(ctx, s, func(i int) {
			assign[i] = nearestCell(sample.Row(i), cent, cnormHalf)
		}); err != nil {
			return nil, err
		}
		if it > 0 {
			changed := false
			for i := range assign {
				if assign[i] != prev[i] {
					changed = true
					break
				}
			}
			if !changed {
				break
			}
		}
		copy(prev, assign)
		for i := range sums {
			sums[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < s; i++ {
			c := assign[i]
			acc := sums[c*d : (c+1)*d]
			for x, v := range sample.Row(i) {
				acc[x] += v
			}
			counts[c]++
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Empty cell: keep the old centroid rather than collapsing
				// the quantizer (standard IVF practice).
				continue
			}
			row := cent.Row(c)
			inv := 1 / float64(counts[c])
			for x := range row {
				row[x] = sums[c*d+x] * inv
			}
			cnormHalf[c] = 0.5 * matrix.Dot4(row, row)
		}
	}
	return cent, nil
}

// TrainCentroids exposes the IVF coarse-quantizer training — k-means++
// seeding plus Lloyd refinement with bit-deterministic reductions — for
// callers outside the index. The shard partitioner (internal/shard) trains
// its co-clustering quantizer through this entry point so shard assignment
// and IVF cell assignment share one code path and one determinism contract.
// It trains on every row of data (the caller samples), with k clamped to
// [1, n].
func TrainCentroids(ctx context.Context, data *matrix.Dense, k int, seed int64) (*matrix.Dense, error) {
	n := data.Rows()
	k = min(max(k, 1), n)
	return trainCentroids(ctx, data, k, n, rand.New(rand.NewSource(seed)))
}

// CentroidNormsHalf precomputes ‖c‖²/2 per centroid — the constant NearestCell
// folds into its fused-dot comparison.
func CentroidNormsHalf(cent *matrix.Dense) []float64 {
	out := make([]float64, cent.Rows())
	for c := range out {
		row := cent.Row(c)
		out[c] = 0.5 * matrix.Dot4(row, row)
	}
	return out
}

// NearestCell returns the centroid nearest to x (smallest ‖x−c‖², ties to the
// smallest cell id), given the CentroidNormsHalf precomputation.
func NearestCell(x []float64, cent *matrix.Dense, cnormHalf []float64) int {
	return nearestCell(x, cent, cnormHalf)
}

// NearestCells writes the ids of the p nearest centroids to x into dst (which
// must hold p entries), ordered by ascending distance with ties to the
// smallest cell id, and returns dst. It is the multi-probe generalization of
// NearestCell used for shard replication: a source row near a cell boundary
// is matched in its p nearest shards.
func NearestCells(x []float64, cent *matrix.Dense, cnormHalf []float64, dst []int) []int {
	p := len(dst)
	k := cent.Rows()
	if p > k {
		p = k
		dst = dst[:p]
	}
	// Scores are ⟨x,c⟩ − ‖c‖²/2 (maximize); selection sorts the tiny p-set.
	scores := make([]float64, p)
	count := 0
	for c := 0; c < k; c++ {
		sc := matrix.Dot4(x, cent.Row(c)) - cnormHalf[c]
		// Insert into the descending-score prefix; strict > keeps the
		// first-seen (smallest-id) cell ahead on ties.
		pos := count
		for pos > 0 && sc > scores[pos-1] {
			pos--
		}
		if pos >= p {
			continue
		}
		if count < p {
			count++
		}
		copy(scores[pos+1:count], scores[pos:count-1])
		copy(dst[pos+1:count], dst[pos:count-1])
		scores[pos] = sc
		dst[pos] = c
	}
	return dst[:count]
}

// sqDist returns ‖x−c‖² via the norm identity, clamped at zero (the identity
// can go a few ulps negative when x == c).
func sqDist(xnorm float64, x, c []float64, cnormHalf float64) float64 {
	v := xnorm + 2*cnormHalf - 2*matrix.Dot4(x, c)
	if v < 0 {
		return 0
	}
	return v
}

// nearestCell returns the centroid minimizing ‖x−c‖², ties broken by the
// smallest cell id. Minimizing distance is maximizing ⟨x,c⟩ − ‖c‖²/2 (the
// ‖x‖² term is constant per point), so the comparison is one fused dot per
// cell; the strict > keeps the first-seen cell on ties.
func nearestCell(x []float64, cent *matrix.Dense, cnormHalf []float64) int {
	best, bestScore := 0, matrix.Dot4(x, cent.Row(0))-cnormHalf[0]
	for c := 1; c < cent.Rows(); c++ {
		if sc := matrix.Dot4(x, cent.Row(c)) - cnormHalf[c]; sc > bestScore {
			best, bestScore = c, sc
		}
	}
	return best
}
