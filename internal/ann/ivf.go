// Package ann provides a pure-Go IVF-Flat approximate-nearest-neighbor
// index over entity embedding tables. It is the sub-quadratic producer of
// candidate graphs: instead of streaming every source×target score
// (O(n·m·d)), the target table is partitioned into Clusters Voronoi cells by
// a k-means coarse quantizer and each query scores only the NProbe nearest
// cells — O(n·(k + m·nprobe/k)·d) — while reusing the exact same dot kernel
// as the exhaustive tile pass, so every returned score is a true score, and
// full coverage (nprobe = Clusters) reproduces the exhaustive result
// bit-for-bit.
package ann

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
)

// Config parameterizes the IVF index. The zero value means "auto": every
// field <= 0 is replaced by a scale-aware default at build time (see
// withDefaults), so callers only set what they want to pin.
type Config struct {
	// Clusters is the number of k-means cells (the IVF "nlist").
	// Default: round(√n) for an n-point corpus.
	Clusters int
	// NProbe is how many cells each query scans, the recall/speed knob.
	// Default: AutoNProbe(Clusters); clamped to Clusters. nprobe = Clusters
	// is exhaustive and bit-identical to the exact builders.
	NProbe int
	// SampleSize is how many corpus points the quantizer trains on.
	// Default: 32·Clusters, clamped to [Clusters, n]. The quantizer is only
	// a partition — every corpus row is re-assigned exactly after training —
	// so a modest sample suffices and training stays a small fraction of one
	// exhaustive pass.
	SampleSize int
	// Iters bounds the Lloyd refinement iterations. Default: 6 (with
	// k-means++ seeding the partition stabilizes in a handful of rounds, and
	// assignment early-stops when nothing moves).
	Iters int
	// Seed drives sampling and k-means++ seeding; the same (data, Config)
	// always builds the identical index.
	Seed int64
}

// AutoClusters is the cluster count a zero Clusters resolves to for an
// n-point corpus: round(√n), clamped to [1, n]. Exported so the pipeline
// (and the cost planner) can validate explicit NProbe values against the
// auto geometry before any training starts, instead of discovering a
// silently clamped probe count deep inside a build.
func AutoClusters(n int) int {
	k := int(math.Round(math.Sqrt(float64(n))))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// AutoNProbe is the probe count a zero NProbe resolves to over k cells:
// max(1, k/16).
func AutoNProbe(k int) int { return max(1, k/16) }

// withDefaults resolves the auto fields against an n-point corpus and clamps
// everything to valid ranges.
func (c Config) withDefaults(n int) Config {
	if c.Clusters <= 0 {
		c.Clusters = AutoClusters(n)
	}
	if c.Clusters < 1 {
		c.Clusters = 1
	}
	if c.Clusters > n {
		c.Clusters = n
	}
	if c.NProbe <= 0 {
		c.NProbe = AutoNProbe(c.Clusters)
	}
	if c.NProbe > c.Clusters {
		c.NProbe = c.Clusters
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 32 * c.Clusters
	}
	if c.SampleSize < c.Clusters {
		c.SampleSize = c.Clusters
	}
	if c.SampleSize > n {
		c.SampleSize = n
	}
	if c.Iters <= 0 {
		c.Iters = 6
	}
	return c
}

// IVF is a built inverted-file index over one embedding table. The corpus
// vectors are copied into a contiguous slab grouped by cell, so a probe
// scans one cache-friendly run of memory; within a cell, ids ascend —
// together with the order-insensitive BoundedTopK selector this keeps query
// results independent of cell layout.
type IVF struct {
	dim, n, k int

	centroids *matrix.Dense // k×dim quantizer
	cnormHalf []float64     // ‖centroid‖²/2, for fused distance ranking

	// scan is the scan core over the cell slabs: Bounds are the k+1 list
	// pointers (cell c spans Bounds[c]..Bounds[c+1]), IDs the n corpus row
	// ids (ascending within a cell), Vecs the n·dim corpus rows in slab
	// order. AttachQuant adds the optional SQ8 side table — the same rows as
	// int8 Codes in slab order plus the quantized Table for query folding.
	// It pools the per-worker query scratch, so an IVF is never copied.
	scan quant.Scanner
}

// Clusters returns the number of cells the index was built with (after
// defaulting), the exhaustive value for the nprobe knob.
func (ivf *IVF) Clusters() int { return ivf.k }

// Len returns the corpus size.
func (ivf *IVF) Len() int { return ivf.n }

// SizeBytes returns the heap footprint of the index: the vector slab, ids,
// list pointers, and quantizer.
func (ivf *IVF) SizeBytes() int64 {
	return int64(len(ivf.scan.Vecs))*8 + int64(len(ivf.scan.IDs))*4 +
		int64(len(ivf.scan.Bounds))*8 + int64(ivf.k)*int64(ivf.dim)*8 + int64(len(ivf.cnormHalf))*8
}

// Build trains the coarse quantizer on a sample of data and scatters every
// row into its nearest cell. data must be the *prepared* table (for cosine:
// the row-normalized copy the similarity stream scores with) so that index
// hits carry exactly the streamed scores.
func Build(ctx context.Context, data *matrix.Dense, cfg Config) (*IVF, error) {
	if data == nil {
		return nil, fmt.Errorf("ann: nil corpus")
	}
	n, d := data.Rows(), data.Cols()
	if n == 0 || d == 0 {
		return nil, fmt.Errorf("ann: empty corpus (%d×%d)", n, d)
	}
	cfg = cfg.withDefaults(n)
	rng := rand.New(rand.NewSource(cfg.Seed))
	cent, err := trainCentroids(ctx, data, cfg.Clusters, cfg.SampleSize, cfg.Iters, rng)
	if err != nil {
		return nil, err
	}
	k := cfg.Clusters
	ivf := newIVF(cent, make([]int64, k+1), make([]int32, n), make([]float64, n*d))
	// Assign every corpus row to its cell (parallel; each point owns its
	// slot), then counting-sort into the slab. Scanning rows in ascending
	// order during the scatter leaves ids ascending within each cell.
	assign := make([]int32, n)
	if err := matrix.ParallelRowsCtx(ctx, n, func(i int) {
		assign[i] = int32(nearestCell(data.Row(i), cent, ivf.cnormHalf))
	}); err != nil {
		return nil, err
	}
	counts := make([]int64, k+1)
	for _, c := range assign {
		counts[c+1]++
	}
	for c := 0; c < k; c++ {
		counts[c+1] += counts[c]
	}
	copy(ivf.scan.Bounds, counts)
	next := make([]int64, k)
	copy(next, counts[:k])
	for i := 0; i < n; i++ {
		c := assign[i]
		p := next[c]
		next[c]++
		ivf.scan.IDs[p] = int32(i)
		copy(ivf.scan.Vecs[int(p)*d:(int(p)+1)*d], data.Row(i))
	}
	return ivf, nil
}

// newIVF assembles an index around a quantizer and its cell slabs (which
// Build fills in afterwards and FromData has validated), deriving cnormHalf.
func newIVF(cent *matrix.Dense, listPtr []int64, ids []int32, vecs []float64) *IVF {
	k, d := cent.Rows(), cent.Cols()
	ivf := &IVF{
		dim: d, n: len(ids), k: k,
		centroids: cent,
		cnormHalf: make([]float64, k),
		scan:      quant.Scanner{Tag: "ann", Dim: d, Bounds: listPtr, IDs: ids, Vecs: vecs},
	}
	for c := 0; c < k; c++ {
		row := cent.Row(c)
		ivf.cnormHalf[c] = 0.5 * matrix.Dot4(row, row)
	}
	return ivf
}

// Search scores each query row against the nprobe nearest cells and returns
// its top-c hits by inner product, in the codebase-wide (value desc, index
// asc) order. queries must be the prepared (normalized) rows, like the
// corpus. At nprobe = Clusters every corpus point is scored and the result
// equals the exhaustive top-c selection exactly. See probe for what is
// rejected and what is clamped.
//
// Candidates arrive selector-side in cell-slab order — out of index order —
// which is why selection runs on the order-insensitive BoundedTopK rather
// than the streaming accumulators' heaps.
func (ivf *IVF) Search(ctx context.Context, queries *matrix.Dense, c, nprobe int) ([]matrix.TopK, error) {
	return ivf.scan.Search(ctx, queries, c, ivf.probe(nprobe))
}

// probe is the index's candidate set for the scan core: the nprobe cells
// nearest to a query by the fused distance score ⟨q,centroid⟩ −
// ‖centroid‖²/2 (the same geometry that assigned points to cells), ties by
// ascending cell id — the one ranking the float and the quantized scan
// share, so enabling quantization never changes WHICH cells a query probes.
//
// This is the shared entry of Search and SearchQuant, so the argument
// contract is stated once. Rejected with an error: nil queries, a query
// dimensionality other than the index's, c < 1 (all by the scan core) and,
// for SearchQuant, an index without an attached quantized table. Clamped:
// c > Len to Len, nprobe to [1, Clusters].
func (ivf *IVF) probe(nprobe int) quant.Probe {
	nprobe = max(1, min(nprobe, ivf.k))
	return func(q []float64, cells *matrix.BoundedTopK) []int {
		cells.EnsureK(nprobe)
		for cell := 0; cell < ivf.k; cell++ {
			cells.Offer(matrix.Dot4(q, ivf.centroids.Row(cell))-ivf.cnormHalf[cell], cell)
		}
		return cells.Finalize().Indices
	}
}

// AttachQuant installs an SQ8 side table for this index's corpus: t must be
// the quantized form of the same prepared table the index was built over.
// Codes are scattered into cell-slab order so a probe scans one contiguous
// int8 run, exactly like the float slab. After attaching, SearchQuant
// becomes available; Search is unaffected. Attaching the table that is
// already attached is a no-op, so sources sharing one index can each enable
// quantization without re-scattering the slab.
func (ivf *IVF) AttachQuant(t *quant.Table) error {
	if t == nil {
		return fmt.Errorf("ann: nil quantized table")
	}
	if t == ivf.scan.Table {
		return nil
	}
	if t.Rows() != ivf.n || t.Dim() != ivf.dim {
		return fmt.Errorf("ann: quantized table covers %d×%d but index holds %d×%d",
			t.Rows(), t.Dim(), ivf.n, ivf.dim)
	}
	qvecs := make([]int8, ivf.n*ivf.dim)
	d := ivf.dim
	for p := 0; p < ivf.n; p++ {
		copy(qvecs[p*d:(p+1)*d], t.Row(int(ivf.scan.IDs[p])))
	}
	ivf.scan.Codes, ivf.scan.Table = qvecs, t
	return nil
}

// HasQuant reports whether an SQ8 side table is attached.
func (ivf *IVF) HasQuant() bool { return ivf.scan.Codes != nil }

// QuantBytes returns the footprint of the attached quantized slab (0 when
// none): the int8 code slab plus the per-dimension scales.
func (ivf *IVF) QuantBytes() int64 {
	if !ivf.HasQuant() {
		return 0
	}
	return int64(len(ivf.scan.Codes)) + int64(ivf.dim)*8
}

// SearchQuant is Search with the candidate scan running on the attached SQ8
// slab: cells are ranked by the float64 centroid scores (so the probed set
// is identical to Search's), every candidate in a probed cell is scored
// with the int8 kernel, and the top factor×c pool — plus every candidate
// tied with the pool boundary — is re-scored against the float slab with
// the exact kernel, from which the final top-c is selected under the
// canonical (value desc, index asc) order. At the default factor the
// results are bit-identical to Search's whenever the pool covers the true
// top-c (conformance-pinned; the boundary-tie rule covers the degenerate
// all-ties regimes exactly). rerank=false skips the float64 phase and
// returns the approximate scores sq·DotI8 — the quantized-only escape
// hatch.
func (ivf *IVF) SearchQuant(ctx context.Context, queries *matrix.Dense, c, nprobe, factor int, rerank bool) ([]matrix.TopK, error) {
	if !ivf.HasQuant() {
		return nil, fmt.Errorf("ann: SearchQuant without an attached quantized table")
	}
	return ivf.scan.SearchQuant(ctx, queries, c, ivf.probe(nprobe), factor, rerank)
}
