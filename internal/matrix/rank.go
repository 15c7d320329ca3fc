package matrix

import (
	"math"
	"math/bits"
	"sync"
)

// This file is the one ranking primitive under the matcher bodies: "order
// positions by (value desc, index asc)". SMat's row preference lists and
// column rank tables, RInf's rank transform and the candidate-graph RInf's
// per-entity block rankings all call it, so they share one tie-break.
//
// The order is the one of the comparator
//
//	less(a, b) = vals[a] > vals[b] || (vals[a] == vals[b] && idx[a] < idx[b])
//
// over finite values: total because the indices are distinct, and with −0.0
// tying +0.0 because == says so. It is computed without a comparator: every
// value maps to a uint64 whose ascending order is the value's descending
// order (descKey), and positions are stably sorted by that key (sortByKeys:
// a radix over the bits that separate the row, then an insertion pass).
// Stability supplies the index tie-break — positions start in ascending index
// order. Inputs are finite-gated upstream (core.ValidateContext); ±Inf order
// correctly, NaNs land at a deterministic place that no caller relies on.

// descKey maps v to a key whose ascending unsigned order is descending value
// order. The raw bits of a non-negative double ascend with its value and
// those of a negative one descend, so complementing the 63 low bits of the
// non-negatives and leaving the negatives alone yields one descending scale
// with the sign bit as its top digit. −0.0 is first canonicalised to +0.0:
// the comparator above calls them equal, their bits would not.
func descKey(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	b := math.Float64bits(v)
	return b ^ (^uint64(int64(b)>>63) & (1<<63 - 1))
}

// ranker is the scratch of one ranking: the keys, two position buffers the
// radix passes alternate between, the permutation the sort was handed (for
// the full-key restart), and the per-digit histograms. Rankers are pooled, so
// a worker ranking row after row allocates nothing once warm.
type ranker struct {
	keys        []uint64
	a, b, given []int32
	hist        [8][256]uint32
}

// insertionRankMax is the length up to which sortByKeys runs a stable
// insertion sort instead: below it the radix's fixed cost (clearing and
// prefix-summing the digit counters) exceeds the quadratic term. Candidate
// blocks at the usual budgets are this short; full rows are not.
const insertionRankMax = 64

// rankWindowBits is how many key bits the first sort of a long row orders
// by: the ones from the highest bit in which the row's keys differ down.
// Three byte passes; below them the keys of a row of similarity scores
// rarely still tie.
const rankWindowBits = 24

var rankerPool = sync.Pool{New: func() any { return new(ranker) }}

// grow sizes the scratch for n positions.
func (r *ranker) grow(n int) {
	if cap(r.keys) < n {
		r.keys = make([]uint64, n)
		r.a = make([]int32, n)
		r.b = make([]int32, n)
		r.given = make([]int32, n)
	}
	r.keys, r.a, r.b, r.given = r.keys[:n], r.a[:n], r.b[:n], r.given[:n]
}

// identity fills r.a with 0..n-1, the starting permutation of a ranking whose
// tie-break is the position itself.
func (r *ranker) identity() {
	for i := range r.a {
		r.a[i] = int32(i)
	}
}

// sortByKeys stably reorders the permutation in r.a by ascending r.keys. The
// result is r.a again (valid until the ranker's next use).
//
// Short rows take a stable insertion sort. A long row is first radix-sorted
// by the rankWindowBits bits below the highest bit in which its keys differ
// — the bits above are shared, so that is the order of the keys' common
// prefix — and then finished by a stable insertion pass on the full keys,
// which moves only positions whose keys tie inside the window. A row whose
// window leaves more than about 2n moves to that pass restarts from the
// permutation it was handed on a full 64-bit radix. Every route is a stable
// sort by the keys, so all return the same permutation.
func (r *ranker) sortByKeys() []int32 {
	keys := r.keys
	n := len(keys)
	if n <= insertionRankMax {
		r.insertionFix(n * n)
		return r.a
	}
	var diff uint64
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	if diff == 0 {
		return r.a // every key equal: already stably sorted
	}
	lo := max(0, 64-bits.LeadingZeros64(diff)-rankWindowBits)
	copy(r.given, r.a)
	h := r.hist[:3]
	clear(h)
	for _, k := range keys {
		k >>= lo
		h[0][k&0xff]++
		h[1][k>>8&0xff]++
		h[2][k>>16&0xff]++
	}
	r.radixPasses(h, uint(lo))
	if lo == 0 || r.insertionFix(2*n) {
		return r.a
	}
	copy(r.a, r.given)
	r.hist = [8][256]uint32{}
	for _, k := range keys {
		r.hist[0][k&0xff]++
		r.hist[1][k>>8&0xff]++
		r.hist[2][k>>16&0xff]++
		r.hist[3][k>>24&0xff]++
		r.hist[4][k>>32&0xff]++
		r.hist[5][k>>40&0xff]++
		r.hist[6][k>>48&0xff]++
		r.hist[7][k>>56]++
	}
	r.radixPasses(r.hist[:], 0)
	return r.a
}

// radixPasses runs one stable LSD byte pass per histogram, digit d being the
// key byte at bit lo+8d, scattering from r.a into r.b and swapping the two. A
// digit every key shares costs no pass: it would move nothing.
func (r *ranker) radixPasses(hist [][256]uint32, lo uint) {
	keys := r.keys
	n := uint32(len(keys))
	for d := range hist {
		h := &hist[d]
		shift := lo + uint(8*d)
		if h[keys[0]>>shift&0xff] == n {
			continue
		}
		var sum uint32
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		dst := r.b
		for _, p := range r.a {
			b := keys[p] >> shift & 0xff
			dst[h[b]] = p
			h[b]++
		}
		r.a, r.b = r.b, r.a
	}
}

// insertionFix stably insertion-sorts r.a by r.keys. It gives up, leaving r.a
// a permutation in no particular order, and reports false once it has moved
// positions more than budget times.
func (r *ranker) insertionFix(budget int) bool {
	a, keys := r.a, r.keys
	if len(a) == 0 {
		return true
	}
	last := keys[a[0]] // the largest key placed so far
	for i := 1; i < len(a); i++ {
		p := a[i]
		k := keys[p]
		if k >= last {
			last = k
			continue
		}
		j := i
		for ; j > 0 && keys[a[j-1]] > k; j-- {
			a[j] = a[j-1]
		}
		a[j] = p
		if budget -= i - j; budget < 0 {
			return false
		}
	}
	return true
}

// orderDesc returns the positions of vals in (value desc, position asc)
// order, aliasing the ranker's scratch.
func (r *ranker) orderDesc(vals []float64) []int32 {
	r.grow(len(vals))
	for i, v := range vals {
		r.keys[i] = descKey(v)
	}
	r.identity()
	return r.sortByKeys()
}

// OrderDesc writes into order the positions of vals sorted by descending
// value, equal values (−0.0 and +0.0 included) by ascending position.
// len(order) must equal len(vals).
func OrderDesc(order []int32, vals []float64) {
	r := rankerPool.Get().(*ranker)
	copy(order[:len(vals)], r.orderDesc(vals))
	rankerPool.Put(r)
}

// RanksDesc writes into ranks the 0-based rank of every position of vals
// under the OrderDesc order: the inverse permutation. len(ranks) must equal
// len(vals).
func RanksDesc(ranks []int32, vals []float64) {
	r := rankerPool.Get().(*ranker)
	ranks = ranks[:len(vals)]
	for rank, p := range r.orderDesc(vals) {
		ranks[p] = int32(rank)
	}
	rankerPool.Put(r)
}

// OrderDescByKey is OrderDesc with the tie-break taken from key instead of
// the position: equal values are ordered by ascending key[position]. Keys
// must be distinct for the order to be total; they need not be sorted. A row
// of up to insertionRankMax entries is insertion-sorted in place on the pair
// (value desc, key asc); a longer one is ordered by key first, then stably
// by value.
func OrderDescByKey(order []int32, vals []float64, key []int32) {
	n := len(vals)
	if n <= insertionRankMax {
		insertionByKey(order[:n], vals, key)
		return
	}
	r := rankerPool.Get().(*ranker)
	r.grow(n)
	for i, k := range key[:n] {
		r.keys[i] = uint64(k) ^ 1<<63 // signed order
	}
	r.identity()
	r.sortByKeys()
	for i, v := range vals {
		r.keys[i] = descKey(v)
	}
	copy(order, r.sortByKeys())
	rankerPool.Put(r)
}

// insertionByKey fills order with 0..len(order)-1 sorted by (vals desc, key
// asc) with one insertion pass. Candidate blocks arrive in stored-score order
// and their preferences correlate with it, so few positions move far.
func insertionByKey(order []int32, vals []float64, key []int32) {
	for a := range order {
		x := int32(a)
		b := a - 1
		for ; b >= 0; b-- {
			y := order[b]
			if vals[y] > vals[x] || (vals[y] == vals[x] && key[y] < key[x]) {
				break
			}
			order[b+1] = y
		}
		order[b+1] = x
	}
}
