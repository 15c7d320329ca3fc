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
	"slices"
	"sync"

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
	// Default: max(1, Clusters/16); clamped to Clusters. nprobe = Clusters
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
		c.NProbe = c.Clusters / 16
	}
	if c.NProbe < 1 {
		c.NProbe = 1
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

	listPtr []int64   // len k+1; cell c spans listPtr[c]..listPtr[c+1]
	ids     []int32   // len n, corpus row ids, ascending within a cell
	vecs    []float64 // len n·dim, corpus rows in slab order

	// Optional SQ8 side table (AttachQuant): the same corpus rows as int8
	// codes in slab order, plus the quantized table for query folding.
	// SearchQuant scans qvecs and re-ranks survivors against vecs.
	qvecs []int8
	qt    *quant.Table

	// scratch pools each worker's per-query buffers (cell + candidate
	// selectors, quantized-scan state) across queries AND across Search
	// calls, so the query path allocates only its escaping results (see
	// TestSearchAllocsPooled). Pooled per index — never copied.
	scratch sync.Pool
}

// Clusters returns the number of cells the index was built with (after
// defaulting), the exhaustive value for the nprobe knob.
func (ivf *IVF) Clusters() int { return ivf.k }

// Len returns the corpus size.
func (ivf *IVF) Len() int { return ivf.n }

// SizeBytes returns the heap footprint of the index: the vector slab, ids,
// list pointers, and quantizer.
func (ivf *IVF) SizeBytes() int64 {
	return int64(len(ivf.vecs))*8 + int64(len(ivf.ids))*4 +
		int64(len(ivf.listPtr))*8 + int64(ivf.k)*int64(ivf.dim)*8 + int64(len(ivf.cnormHalf))*8
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
	ivf := &IVF{
		dim:       d,
		n:         n,
		k:         k,
		centroids: cent,
		cnormHalf: make([]float64, k),
		listPtr:   make([]int64, k+1),
		ids:       make([]int32, n),
		vecs:      make([]float64, n*d),
	}
	for c := 0; c < k; c++ {
		row := cent.Row(c)
		ivf.cnormHalf[c] = 0.5 * matrix.Dot4(row, row)
	}
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
	copy(ivf.listPtr, counts)
	next := make([]int64, k)
	copy(next, counts[:k])
	for i := 0; i < n; i++ {
		c := assign[i]
		p := next[c]
		next[c]++
		ivf.ids[p] = int32(i)
		copy(ivf.vecs[int(p)*d:(int(p)+1)*d], data.Row(i))
	}
	return ivf, nil
}

// searchScratch is one worker's reusable query state: a selector for
// ranking cells, one for the candidate top-c, and the quantized-scan
// buffers (query codes, per-candidate int32 scores and their slab
// positions, the pool-threshold heap, and the re-rank pool). The selectors
// are re-sized per query via EnsureK and every slice grows to the largest
// request served, so a warmed scratch handles any (c, nprobe) without
// allocating.
type searchScratch struct {
	cells *matrix.BoundedTopK
	sel   *matrix.BoundedTopK

	codeQ   []int8
	ints    []int32
	pos     []int32
	heapBuf []int32
	poolIDs []int
	poolPos []int32

	// groupKeys is the blocked-search cell merge buffer: packed
	// (cell<<width | queryBit) keys from every query in a group, sorted so
	// one walk yields each probed cell with its membership mask. Owned by
	// the group leader's scratch.
	groupKeys []int64
}

// getScratch fetches a pooled scratch or builds an empty one; EnsureK and
// the ensure* helpers size it for the query at hand.
func (ivf *IVF) getScratch() *searchScratch {
	if sc, ok := ivf.scratch.Get().(*searchScratch); ok {
		return sc
	}
	return &searchScratch{cells: matrix.NewBoundedTopK(0), sel: matrix.NewBoundedTopK(0)}
}

// Search scores each query row against the nprobe nearest cells and returns
// its top-c hits by inner product, in the codebase-wide (value desc, index
// asc) order. queries must share the index's dimensionality and, like the
// corpus, be the prepared (normalized) rows. nprobe and c are clamped to
// [1, Clusters] and [1, Len]; at nprobe = Clusters every corpus point is
// scored and the result equals the exhaustive top-c selection exactly.
//
// Cells are ranked by the query's fused distance score ⟨q,centroid⟩ −
// ‖centroid‖²/2 (the same geometry that assigned points to cells), ties by
// ascending cell id. Candidates arrive selector-side in cell-slab order —
// out of index order — which is why selection runs on the order-insensitive
// BoundedTopK rather than the streaming accumulators' heaps.
func (ivf *IVF) Search(ctx context.Context, queries *matrix.Dense, c, nprobe int) ([]matrix.TopK, error) {
	if queries == nil {
		return nil, fmt.Errorf("ann: nil queries")
	}
	if queries.Cols() != ivf.dim {
		return nil, fmt.Errorf("ann: query dim %d != index dim %d", queries.Cols(), ivf.dim)
	}
	if c < 1 {
		return nil, fmt.Errorf("ann: candidate budget %d < 1", c)
	}
	if c > ivf.n {
		c = ivf.n
	}
	if nprobe < 1 {
		nprobe = 1
	}
	if nprobe > ivf.k {
		nprobe = ivf.k
	}
	nq := queries.Rows()
	out := make([]matrix.TopK, nq)
	// Queries run in register-blocked groups of three sharing every probed
	// cell's slab reads (matrix.DotBlock3); the ragged remainder takes the
	// per-query path. Scores are bit-identical either way and the selector
	// is order-insensitive, so grouping never changes a result.
	groups := (nq + 2) / 3
	err := matrix.ParallelRowsCtx(ctx, groups, func(g int) {
		qi := g * 3
		if qi+3 <= nq {
			ivf.searchBlock3(queries, qi, c, nprobe, out)
			return
		}
		for ; qi < nq; qi++ {
			out[qi] = ivf.searchOne(queries.Row(qi), c, nprobe)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// copyTopK copies a Finalize result out of pooled selector storage.
func copyTopK(tk matrix.TopK) matrix.TopK {
	return matrix.TopK{
		Values:  append([]float64(nil), tk.Values...),
		Indices: append([]int(nil), tk.Indices...),
	}
}

// searchOne is the per-query float scan: rank cells, score every candidate
// in the probed cells with the per-pair kernel, select top-c.
func (ivf *IVF) searchOne(q []float64, c, nprobe int) matrix.TopK {
	d := ivf.dim
	sc := ivf.getScratch()
	defer ivf.scratch.Put(sc)
	sc.sel.EnsureK(c)
	probes := ivf.rankCells(sc, q, nprobe)
	for _, cell := range probes.Indices {
		lo, hi := ivf.listPtr[cell], ivf.listPtr[cell+1]
		for p := lo; p < hi; p++ {
			sc.sel.Offer(matrix.Dot4(q, ivf.vecs[int(p)*d:(int(p)+1)*d]), int(ivf.ids[p]))
		}
	}
	return copyTopK(sc.sel.Finalize())
}

// searchBlock3 serves queries qi..qi+2 as one blocked pass. Each query keeps
// its own probe ranking (so WHICH cells are scanned per query is exactly the
// per-query path's), but the scans are merged: probed cells are walked in
// ascending id with a 3-bit membership mask, and a cell all three queries
// probe is scanned once through matrix.DotBlock3 — one slab read for three
// scores. Cells probed by a strict subset fall back to the per-pair kernel.
// Values are bit-identical to searchOne's and BoundedTopK is
// order-insensitive, so the changed candidate arrival order cannot change
// any selection.
func (ivf *IVF) searchBlock3(queries *matrix.Dense, qi, c, nprobe int, out []matrix.TopK) {
	d := ivf.dim
	var scs [3]*searchScratch
	var qs [3][]float64
	for j := 0; j < 3; j++ {
		scs[j] = ivf.getScratch()
		scs[j].sel.EnsureK(c)
		qs[j] = queries.Row(qi + j)
	}
	lead := scs[0]
	lead.groupKeys = lead.groupKeys[:0]
	for j := 0; j < 3; j++ {
		probes := ivf.rankCells(scs[j], qs[j], nprobe)
		for _, cell := range probes.Indices {
			lead.groupKeys = append(lead.groupKeys, int64(cell)<<3|int64(1)<<j)
		}
	}
	slices.Sort(lead.groupKeys)
	keys := lead.groupKeys
	var blk [3]float64
	for x := 0; x < len(keys); {
		cell := keys[x] >> 3
		mask := 0
		for ; x < len(keys) && keys[x]>>3 == cell; x++ {
			mask |= int(keys[x] & 7)
		}
		lo, hi := ivf.listPtr[cell], ivf.listPtr[cell+1]
		if mask == 7 {
			for p := lo; p < hi; p++ {
				matrix.DotBlock3(qs[0], qs[1], qs[2], ivf.vecs[int(p)*d:(int(p)+1)*d], &blk)
				id := int(ivf.ids[p])
				scs[0].sel.Offer(blk[0], id)
				scs[1].sel.Offer(blk[1], id)
				scs[2].sel.Offer(blk[2], id)
			}
			continue
		}
		for j := 0; j < 3; j++ {
			if mask&(1<<j) == 0 {
				continue
			}
			for p := lo; p < hi; p++ {
				scs[j].sel.Offer(matrix.Dot4(qs[j], ivf.vecs[int(p)*d:(int(p)+1)*d]), int(ivf.ids[p]))
			}
		}
	}
	for j := 0; j < 3; j++ {
		out[qi+j] = copyTopK(scs[j].sel.Finalize())
		ivf.scratch.Put(scs[j])
	}
}

// rankCells selects the nprobe cells nearest to q by the fused distance
// score ⟨q,centroid⟩ − ‖centroid‖²/2, ties by ascending cell id — the one
// ranking both the float and the quantized scan share, so enabling
// quantization never changes WHICH cells a query probes. The returned TopK
// aliases sc.cells.
func (ivf *IVF) rankCells(sc *searchScratch, q []float64, nprobe int) matrix.TopK {
	sc.cells.EnsureK(nprobe)
	for cell := 0; cell < ivf.k; cell++ {
		sc.cells.Offer(matrix.Dot4(q, ivf.centroids.Row(cell))-ivf.cnormHalf[cell], cell)
	}
	return sc.cells.Finalize()
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
	if t == ivf.qt {
		return nil
	}
	if t.Rows() != ivf.n || t.Dim() != ivf.dim {
		return fmt.Errorf("ann: quantized table covers %d×%d but index holds %d×%d",
			t.Rows(), t.Dim(), ivf.n, ivf.dim)
	}
	qvecs := make([]int8, ivf.n*ivf.dim)
	d := ivf.dim
	for p := 0; p < ivf.n; p++ {
		copy(qvecs[p*d:(p+1)*d], t.Row(int(ivf.ids[p])))
	}
	ivf.qvecs = qvecs
	ivf.qt = t
	return nil
}

// HasQuant reports whether an SQ8 side table is attached.
func (ivf *IVF) HasQuant() bool { return ivf.qvecs != nil }

// QuantBytes returns the footprint of the attached quantized slab (0 when
// none): the int8 code slab plus the per-dimension scales.
func (ivf *IVF) QuantBytes() int64 {
	if ivf.qvecs == nil {
		return 0
	}
	return int64(len(ivf.qvecs)) + int64(ivf.dim)*8
}

// ensureQuantScratch sizes the quantized-scan buffers for m candidates and
// a pool bound of p.
func (sc *searchScratch) ensureQuantScratch(dim, m, p int) {
	if cap(sc.codeQ) < dim {
		sc.codeQ = make([]int8, dim)
	}
	sc.codeQ = sc.codeQ[:dim]
	if cap(sc.ints) < m {
		sc.ints = make([]int32, m)
		sc.pos = make([]int32, m)
	}
	sc.ints = sc.ints[:m]
	sc.pos = sc.pos[:m]
	if cap(sc.heapBuf) < p {
		sc.heapBuf = make([]int32, 0, p)
	}
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
	if ivf.qvecs == nil {
		return nil, fmt.Errorf("ann: SearchQuant without an attached quantized table")
	}
	if queries == nil {
		return nil, fmt.Errorf("ann: nil queries")
	}
	if queries.Cols() != ivf.dim {
		return nil, fmt.Errorf("ann: query dim %d != index dim %d", queries.Cols(), ivf.dim)
	}
	if c < 1 {
		return nil, fmt.Errorf("ann: candidate budget %d < 1", c)
	}
	if c > ivf.n {
		c = ivf.n
	}
	if nprobe < 1 {
		nprobe = 1
	}
	if nprobe > ivf.k {
		nprobe = ivf.k
	}
	nq := queries.Rows()
	out := make([]matrix.TopK, nq)
	var firstErr error
	var errMu sync.Mutex
	record := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	// Queries run in register-blocked groups of four sharing every probed
	// cell's int8 slab reads (quant.DotI8Block4); the ragged remainder takes
	// the per-query path. Integer scores are exact, so grouping never
	// changes a candidate score, pool, or selection.
	groups := (nq + 3) / 4
	err := matrix.ParallelRowsCtx(ctx, groups, func(g int) {
		qi := g * 4
		if qi+4 <= nq {
			if err := ivf.searchQuantBlock4(queries, qi, c, nprobe, factor, rerank, out); err != nil {
				record(err)
			}
			return
		}
		for ; qi < nq; qi++ {
			tk, err := ivf.searchQuantOne(queries.Row(qi), c, nprobe, factor, rerank)
			if err != nil {
				record(err)
				return
			}
			out[qi] = tk
		}
	})
	if err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// searchQuantOne is the per-query two-phase scan: rank cells by the float
// centroid scores, score every probed candidate with the int8 kernel, then
// re-rank the threshold pool against the float slab.
func (ivf *IVF) searchQuantOne(q []float64, c, nprobe, factor int, rerank bool) (matrix.TopK, error) {
	d := ivf.dim
	sc := ivf.getScratch()
	defer ivf.scratch.Put(sc)
	probes := ivf.rankCells(sc, q, nprobe)
	// Upper-bound the scanned-candidate count for scratch sizing.
	var m int
	for _, cell := range probes.Indices {
		m += int(ivf.listPtr[cell+1] - ivf.listPtr[cell])
	}
	sc.ensureQuantScratch(d, m, quant.PoolSize(factor, c, m))
	sq, err := ivf.qt.QuantizeQuery(q, sc.codeQ)
	if err != nil {
		return matrix.TopK{}, err
	}
	cnt := 0
	for _, cell := range probes.Indices {
		lo, hi := ivf.listPtr[cell], ivf.listPtr[cell+1]
		for pp := lo; pp < hi; pp++ {
			sc.ints[cnt] = quant.DotI8(sc.codeQ, ivf.qvecs[int(pp)*d:(int(pp)+1)*d])
			sc.pos[cnt] = int32(pp)
			cnt++
		}
	}
	return ivf.finishQuant(sc, q, sq, c, factor, rerank, cnt), nil
}

// searchQuantBlock4 serves queries qi..qi+3 as one blocked two-phase pass:
// per-query cell rankings (identical probe sets to the per-query path), a
// merged ascending-cell walk with a 4-bit membership mask, and one
// quant.DotI8Block4 slab read per fully-shared cell. Threshold, pool, and
// re-rank then run per query exactly as in searchQuantOne.
func (ivf *IVF) searchQuantBlock4(queries *matrix.Dense, qi, c, nprobe, factor int, rerank bool, out []matrix.TopK) error {
	d := ivf.dim
	var scs [4]*searchScratch
	var qs [4][]float64
	var sqs [4]float64
	var ms [4]int
	for j := 0; j < 4; j++ {
		scs[j] = ivf.getScratch()
		qs[j] = queries.Row(qi + j)
	}
	defer func() {
		for j := 0; j < 4; j++ {
			ivf.scratch.Put(scs[j])
		}
	}()
	lead := scs[0]
	lead.groupKeys = lead.groupKeys[:0]
	for j := 0; j < 4; j++ {
		probes := ivf.rankCells(scs[j], qs[j], nprobe)
		for _, cell := range probes.Indices {
			lead.groupKeys = append(lead.groupKeys, int64(cell)<<4|int64(1)<<j)
			ms[j] += int(ivf.listPtr[cell+1] - ivf.listPtr[cell])
		}
	}
	for j := 0; j < 4; j++ {
		scs[j].ensureQuantScratch(d, ms[j], quant.PoolSize(factor, c, ms[j]))
		sq, err := ivf.qt.QuantizeQuery(qs[j], scs[j].codeQ)
		if err != nil {
			return err
		}
		sqs[j] = sq
	}
	slices.Sort(lead.groupKeys)
	keys := lead.groupKeys
	var cnt [4]int
	var blk [4]int32
	for x := 0; x < len(keys); {
		cell := keys[x] >> 4
		mask := 0
		for ; x < len(keys) && keys[x]>>4 == cell; x++ {
			mask |= int(keys[x] & 15)
		}
		lo, hi := ivf.listPtr[cell], ivf.listPtr[cell+1]
		if mask == 15 {
			for pp := lo; pp < hi; pp++ {
				quant.DotI8Block4(scs[0].codeQ, scs[1].codeQ, scs[2].codeQ, scs[3].codeQ,
					ivf.qvecs[int(pp)*d:(int(pp)+1)*d], &blk)
				for j := 0; j < 4; j++ {
					scs[j].ints[cnt[j]] = blk[j]
					scs[j].pos[cnt[j]] = int32(pp)
					cnt[j]++
				}
			}
			continue
		}
		for j := 0; j < 4; j++ {
			if mask&(1<<j) == 0 {
				continue
			}
			for pp := lo; pp < hi; pp++ {
				scs[j].ints[cnt[j]] = quant.DotI8(scs[j].codeQ, ivf.qvecs[int(pp)*d:(int(pp)+1)*d])
				scs[j].pos[cnt[j]] = int32(pp)
				cnt[j]++
			}
		}
	}
	for j := 0; j < 4; j++ {
		out[qi+j] = ivf.finishQuant(scs[j], qs[j], sqs[j], c, factor, rerank, cnt[j])
	}
	return nil
}

// finishQuant runs the selection tail of a quantized scan: either the
// approximate top-c straight off the int8 scores (rerank=false) or the
// boundary-tie-inclusive pool threshold plus exact float64 re-rank.
func (ivf *IVF) finishQuant(sc *searchScratch, q []float64, sq float64, c, factor int, rerank bool, cnt int) matrix.TopK {
	d := ivf.dim
	if !rerank {
		sc.sel.EnsureK(c)
		for x := 0; x < cnt; x++ {
			sc.sel.Offer(sq*float64(sc.ints[x]), int(ivf.ids[sc.pos[x]]))
		}
		return copyTopK(sc.sel.Finalize())
	}
	th := quant.PoolThreshold(sc.ints[:cnt], quant.PoolSize(factor, c, cnt), sc.heapBuf)
	sc.poolIDs = sc.poolIDs[:0]
	sc.poolPos = sc.poolPos[:0]
	for x := 0; x < cnt; x++ {
		if sc.ints[x] >= th {
			sc.poolIDs = append(sc.poolIDs, int(ivf.ids[sc.pos[x]]))
			sc.poolPos = append(sc.poolPos, sc.pos[x])
		}
	}
	tk := matrix.RerankTopK(sc.sel, sc.poolIDs, c, func(slot int) float64 {
		pp := int(sc.poolPos[slot])
		return matrix.Dot4(q, ivf.vecs[pp*d:(pp+1)*d])
	})
	return copyTopK(tk)
}
