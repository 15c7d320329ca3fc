package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// swapHeap carries the swap-per-level sift minHeap.down had before it moved a
// hole instead, verbatim, with the heapify, offer and finalize around it. It
// is the layout oracle: heapMean sums the heap in array order, so every array
// the hole sift leaves must be this one's.
type swapHeap struct{ minHeap }

func (h *swapHeap) down(i, n int) {
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

func (h *swapHeap) heapify() {
	n := len(h.vals)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *swapHeap) offer(v float64, j, k int) {
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

func (h *swapHeap) finalize() TopK {
	h.heapify()
	for end := len(h.vals) - 1; end > 0; end-- {
		h.Swap(0, end)
		h.down(0, end)
	}
	return TopK{Values: h.vals, Indices: h.idx}
}

// heapLayoutValue draws from a small set dense in ties, with both signed
// zeros and both infinities.
func heapLayoutValue(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	}
	return float64(rng.Intn(6)) / 4
}

func sameHeapArrays(a, b *minHeap) bool {
	if len(a.vals) != len(b.vals) {
		return false
	}
	for x := range a.vals {
		if math.Float64bits(a.vals[x]) != math.Float64bits(b.vals[x]) || a.idx[x] != b.idx[x] {
			return false
		}
	}
	return true
}

// TestHeapLayoutMatchesReference holds minHeap's hole sift to the swap sift
// it replaced: over random tie-heavy offer sequences (±0, ±Inf, repeated
// values) and bounds k from 1 past the sequence length, the vals and idx
// arrays must be identical after every offer — through minHeap.offer and
// through BoundedTopK.Offer, whose replacement rule differs — and after
// finalize.
func TestHeapLayoutMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(80)
		k := 1 + rng.Intn(n+2)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = heapLayoutValue(rng)
		}

		var got minHeap
		var ref swapHeap
		for j, v := range vals {
			got.offer(v, j, k)
			ref.offer(v, j, k)
			if !sameHeapArrays(&got, &ref.minHeap) {
				t.Fatalf("trial %d, k=%d, after offer %d: %v %v, swap sift %v %v",
					trial, k, j, got.vals, got.idx, ref.vals, ref.idx)
			}
		}
		got.finalize()
		ref.finalize()
		if !sameHeapArrays(&got, &ref.minHeap) {
			t.Fatalf("trial %d, k=%d, finalized: %v %v, swap sift %v %v",
				trial, k, got.vals, got.idx, ref.vals, ref.idx)
		}

		// BoundedTopK replaces on (value desc, index asc), so offers arrive in
		// any index order.
		sel := NewBoundedTopK(k)
		var bref swapHeap
		for _, j := range rng.Perm(n) {
			v := vals[j]
			sel.Offer(v, j)
			if len(bref.vals) < k {
				bref.offer(v, j, k)
			} else if v > bref.vals[0] || (v == bref.vals[0] && j < bref.idx[0]) {
				bref.vals[0], bref.idx[0] = v, j
				bref.down(0, k)
			}
			if !sameHeapArrays(&sel.h, &bref.minHeap) {
				t.Fatalf("trial %d, k=%d, BoundedTopK after offer of %d: %v %v, swap sift %v %v",
					trial, k, j, sel.h.vals, sel.h.idx, bref.vals, bref.idx)
			}
		}
		sel.Finalize()
		bref.finalize()
		if !sameHeapArrays(&sel.h, &bref.minHeap) {
			t.Fatalf("trial %d, k=%d, BoundedTopK finalized: %v %v, swap sift %v %v",
				trial, k, sel.h.vals, sel.h.idx, bref.vals, bref.idx)
		}
	}
}
