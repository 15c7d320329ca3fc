package matrix

import "math"

// TopK holds the k largest values of a row together with their column
// indices, in descending value order.
type TopK struct {
	Values  []float64
	Indices []int
}

// minHeap is a value-indexed min-heap used for streaming top-k selection.
type minHeap struct {
	vals []float64
	idx  []int
}

// Less orders by ascending value with ties broken by DESCENDING index, so the
// heap minimum among equal boundary values is always the latest-offered one
// and eviction retains the earliest indices. Candidates arrive in ascending
// index order everywhere (row scans and tile streams are row-major), so this
// makes the kept top-k set exactly the first-k prefix of the
// (value desc, index asc) sort — the contract RowTopK documents. Before this
// tie-break the evicted entry depended on heap layout: on [0.75, 0@1, 0@2]
// with k=3, a later 0.5 displaced the zero at index 1 or 2 depending on how
// heapify had arranged them (caught by the conformance harness's
// TestKernelsMatchOracles on tie-heavy matrices).
func (h *minHeap) Less(i, j int) bool {
	if h.vals[i] != h.vals[j] {
		return h.vals[i] < h.vals[j]
	}
	return h.idx[i] > h.idx[j]
}
func (h *minHeap) Swap(i, j int) {
	h.vals[i], h.vals[j] = h.vals[j], h.vals[i]
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
}

// heapify establishes the min-heap property over the whole array, bottom-up.
// Together with down it is container/heap's Init/Fix(h, 0) — the same sift
// and the same child choice, so the array layout (which heapMean sums in) is
// unchanged — without the interface dispatch per comparison and swap.
func (h *minHeap) heapify() {
	n := len(h.vals)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// offer feeds one (value, index) candidate into a bounded-size-k heap:
// while under capacity it appends (initializing the heap exactly at k), and
// at capacity it replaces the minimum only on a strictly larger value, so
// among equal boundary values the earliest-offered index is retained. Both
// the one-shot selectors below and the streaming accumulators in stream.go
// funnel through this method — by way of the gated offerRun and offerCols —
// which is what makes their selections (and tie-breaking) identical.
func (h *minHeap) offer(v float64, j, k int) {
	if len(h.vals) < k {
		h.vals = append(h.vals, v)
		h.idx = append(h.idx, j)
		if len(h.vals) == k {
			h.heapify()
		}
		return
	}
	if v > h.vals[0] {
		h.vals[0], h.idx[0] = v, j
		h.down(0, k)
	}
}

// gateOpen is the threshold of a heap still under capacity: NaN compares
// false with everything, so the gate !(v <= thr) passes every score — NaN and
// ±Inf included — on to offer, whose append path then decides.
var gateOpen = math.NaN()

// threshold is the gate value for offers into h: gateOpen while h is under
// capacity, else the heap minimum. A score with v <= threshold would be
// dropped by offer untouched, so the gated loops below skip exactly the calls
// that change nothing and the heap arrays stay bit-identical to one offer per
// score.
func (h *minHeap) threshold(k int) float64 {
	if len(h.vals) < k {
		return gateOpen
	}
	return h.vals[0]
}

// offerRun offers row[c] at index base+c for every c, in order: the row form
// of the threshold gate, with the threshold held in a register so a rejected
// score (most of them, once the heap is full) costs one compare. k must be
// positive.
func (h *minHeap) offerRun(row []float64, base, k int) {
	thr := h.threshold(k)
	for c, v := range row {
		if !(v <= thr) {
			h.offer(v, base+c, k)
			thr = h.threshold(k)
		}
	}
}

// offerCols offers row[c] to heaps[c] at index i for every c: the column
// form of the gate. thr[c] caches heaps[c].threshold(k) in one contiguous
// slice, so a rejected score never dereferences its heap. len(heaps) and
// len(thr) must be at least len(row); k must be positive.
func offerCols(heaps []minHeap, thr, row []float64, i, k int) {
	thr = thr[:len(row)]
	for c, v := range row {
		if !(v <= thr[c]) {
			h := &heaps[c]
			h.offer(v, i, k)
			thr[c] = h.threshold(k)
		}
	}
}

// finalize sorts the heap contents into descending value order (ties by
// ascending index) and returns them as a TopK. The heap must not be offered
// to afterwards.
//
// The sort is an in-place heapsort under Less (ascending value, ties by
// descending index): repeatedly moving the minimum to the end leaves the
// array in the exact inverse order — descending value, ties by ascending
// index. Since column indices are distinct the order is total, so the result
// is identical to any comparison sort under descByValue, without the
// interface boxing sort.Sort would allocate per call (one per row per
// streamed match).
func (h *minHeap) finalize() TopK {
	h.heapify()
	for end := len(h.vals) - 1; end > 0; end-- {
		h.Swap(0, end)
		h.down(0, end)
	}
	return TopK{Values: h.vals, Indices: h.idx}
}

// down restores the min-heap property below node i within h[:n].
func (h *minHeap) down(i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && h.Less(r, l) {
			j = r
		}
		if !h.Less(j, i) {
			return
		}
		h.Swap(i, j)
		i = j
	}
}

// heapMean averages the heap contents in array (heap) order. Exposed as the
// single mean implementation so one-shot and streaming column statistics sum
// in the same order and agree bit-for-bit.
func (h *minHeap) heapMean() float64 {
	if len(h.vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range h.vals {
		s += v
	}
	return s / float64(len(h.vals))
}

// BoundedTopK is an order-insensitive bounded top-k selector over
// (value, index) candidates. minHeap.offer relies on candidates arriving in
// ascending index order to keep the earliest-index-wins contract (it only
// replaces on a strictly larger value); BoundedTopK instead compares against
// the full (value desc, index asc) total order on replacement, so the
// selected set is the canonical top-k regardless of arrival order. The ANN
// query path (internal/ann) offers candidates inverted-list by inverted-list
// — out of index order — which is exactly the arrival pattern this selector
// exists for. Indices must be distinct across offers; the heap minimum is
// then always the unique worst kept candidate.
type BoundedTopK struct {
	h minHeap
	k int
}

// NewBoundedTopK returns a selector keeping the k best candidates. k < 0 is
// treated as 0 (the selector accepts offers and keeps nothing).
func NewBoundedTopK(k int) *BoundedTopK {
	if k < 0 {
		k = 0
	}
	return &BoundedTopK{k: k, h: minHeap{vals: make([]float64, 0, k), idx: make([]int, 0, k)}}
}

// Reset empties the selector for reuse, keeping its backing storage. Any TopK
// previously returned by Finalize aliases that storage and must not be read
// after a Reset.
func (b *BoundedTopK) Reset() {
	b.h.vals = b.h.vals[:0]
	b.h.idx = b.h.idx[:0]
}

// Offer feeds one (value, index) candidate: under capacity it appends
// (heapifying exactly at k), at capacity it replaces the heap minimum —
// the worst kept candidate under (value desc, index asc): smallest value,
// largest index among equals — whenever the new candidate beats it.
func (b *BoundedTopK) Offer(v float64, j int) {
	if b.k == 0 {
		return
	}
	h := &b.h
	if len(h.vals) < b.k {
		h.vals = append(h.vals, v)
		h.idx = append(h.idx, j)
		if len(h.vals) == b.k {
			h.heapify()
		}
		return
	}
	if v > h.vals[0] || (v == h.vals[0] && j < h.idx[0]) {
		h.vals[0], h.idx[0] = v, j
		h.down(0, b.k)
	}
}

// Finalize returns the kept candidates in (value desc, index asc) order —
// the same total order minHeap.finalize emits, so a full-coverage offer
// sequence yields results bit-identical to the streaming accumulators'. The
// returned slices alias the selector's storage: copy them out before Reset,
// and do not Offer again before Reset.
func (b *BoundedTopK) Finalize() TopK { return b.h.finalize() }

// EnsureK reconfigures the selector to keep the k best candidates and
// empties it, retaining backing storage when it is already large enough.
// This is what lets pooled scratch selectors (the ANN and quantized query
// paths) serve requests of varying k without reallocating per query.
func (b *BoundedTopK) EnsureK(k int) {
	if k < 0 {
		k = 0
	}
	b.k = k
	if cap(b.h.vals) < k || cap(b.h.idx) < k {
		b.h.vals = make([]float64, 0, k)
		b.h.idx = make([]int, 0, k)
		return
	}
	b.h.vals = b.h.vals[:0]
	b.h.idx = b.h.idx[:0]
}

// topKOfSlice returns the k largest entries of row in descending order.
// If k >= len(row) it returns the fully sorted row.
func topKOfSlice(row []float64, k int) TopK {
	n := len(row)
	if k > n {
		k = n
	}
	if k <= 0 {
		return TopK{}
	}
	h := minHeap{vals: make([]float64, 0, k), idx: make([]int, 0, k)}
	h.offerRun(row, 0, k)
	return h.finalize()
}

// RowTopK returns the k largest entries of every row, each in descending
// value order (ties broken by ascending column index).
func (m *Dense) RowTopK(k int) []TopK {
	out := make([]TopK, m.rows)
	parallelRows(m.rows, func(i int) {
		out[i] = topKOfSlice(m.Row(i), k)
	})
	return out
}

// RowTopKMeans returns, for every row, the mean of its k largest values.
// This is the φ statistic of the CSLS score (Lample et al. 2018).
func (m *Dense) RowTopKMeans(k int) []float64 {
	out := make([]float64, m.rows)
	parallelRows(m.rows, func(i int) {
		tk := topKOfSlice(m.Row(i), k)
		if len(tk.Values) == 0 {
			return
		}
		var s float64
		for _, v := range tk.Values {
			s += v
		}
		out[i] = s / float64(len(tk.Values))
	})
	return out
}

// ColTopKMeans returns, for every column, the mean of its k largest values.
// It is equivalent to m.Transpose().RowTopKMeans(k) but avoids materializing
// the transpose: the matrix is folded as one tile into the streaming column
// accumulator, so dense and streamed CSLS share one selection loop and sum
// their means in the same heap-array order.
func (m *Dense) ColTopKMeans(k int) []float64 {
	acc := NewColTopKAcc(m.cols, min(k, m.rows))
	defer acc.Release()
	acc.ConsumeTile(0, 0, m)
	return acc.Means()
}

// RowRanksInPlace replaces every row with the descending rank of each
// element within its row: the largest element becomes 1, the second largest
// 2, and so on. Ties are broken by column order. The transform is performed
// in place; the original values are lost.
//
// This is the rank conversion step of the RInf reciprocal matcher
// (Zeng et al., VLDB J 2021): converting preference scores to ranks
// amplifies score differences before bidirectional aggregation.
func (m *Dense) RowRanksInPlace() {
	parallelRows(m.rows, func(i int) {
		row := m.Row(i)
		r := rankerPool.Get().(*ranker)
		for rank, j := range r.orderDesc(row) {
			row[j] = float64(rank + 1)
		}
		rankerPool.Put(r)
	})
}
