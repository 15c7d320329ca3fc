package matrix

import (
	"math"
	"sync"
)

// This file is the one ranking primitive under the dense matcher bodies:
// "order positions by (value desc, index asc)". SMat's row preference lists
// and column rank tables, RInf's rank transform (RowRanksInPlace) and
// RInf-pb's block ranking all call it, so they share one tie-break.
//
// The order is the one of the comparator
//
//	less(a, b) = vals[a] > vals[b] || (vals[a] == vals[b] && idx[a] < idx[b])
//
// over finite values: total because the indices are distinct, and with −0.0
// tying +0.0 because == says so. It is computed without a comparator: every
// value maps to a uint64 whose ascending order is the value's descending
// order (descKey), and a stable LSD byte radix sorts positions by that key.
// Stability supplies the index tie-break — positions start in ascending index
// order — and a digit every key shares costs no pass, so a row of similar
// magnitudes pays for its live bytes only. Inputs are finite-gated upstream
// (core.ValidateContext); ±Inf order correctly, NaNs land at a deterministic
// place (by sign and payload) that no caller relies on.

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
// radix passes alternate between, and the per-digit histograms. Rankers are
// pooled, so a worker ranking row after row allocates nothing once warm.
type ranker struct {
	keys []uint64
	a, b []int32
	hist [8][256]uint32
}

// insertionRankMax is the length up to which sortByKeys runs a stable
// insertion sort instead: below it the radix's fixed cost (clearing and
// prefix-summing 8×256 counters) exceeds the quadratic term. RInf-pb's
// candidate blocks are this short; full rows are not.
const insertionRankMax = 64

var rankerPool = sync.Pool{New: func() any { return new(ranker) }}

// grow sizes the scratch for n positions.
func (r *ranker) grow(n int) {
	if cap(r.keys) < n {
		r.keys = make([]uint64, n)
		r.a = make([]int32, n)
		r.b = make([]int32, n)
	}
	r.keys, r.a, r.b = r.keys[:n], r.a[:n], r.b[:n]
}

// identity fills r.a with 0..n-1, the starting permutation of a ranking whose
// tie-break is the position itself.
func (r *ranker) identity() {
	for i := range r.a {
		r.a[i] = int32(i)
	}
}

// sortByKeys stably reorders the permutation in r.a by ascending r.keys. The
// passes scatter from r.a into r.b and swap the two, so the result is r.a
// again (valid until the ranker's next use).
func (r *ranker) sortByKeys() []int32 {
	keys := r.keys
	n := len(keys)
	if n <= insertionRankMax {
		a := r.a
		for i := 1; i < n; i++ {
			p := a[i]
			k := keys[p]
			j := i
			for ; j > 0 && keys[a[j-1]] > k; j-- {
				a[j] = a[j-1]
			}
			a[j] = p
		}
		return a
	}
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
	for d := range r.hist {
		h := &r.hist[d]
		shift := uint(8 * d)
		if h[keys[0]>>shift&0xff] == uint32(n) {
			continue // every key shares this digit: the pass would move nothing
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
	return r.a
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
// must be distinct for the order to be total; they need not be sorted (the
// positions are first ordered by key, then stably by value).
func OrderDescByKey(order []int32, vals []float64, key []int) {
	r := rankerPool.Get().(*ranker)
	r.grow(len(vals))
	for i, k := range key[:len(vals)] {
		r.keys[i] = uint64(k) ^ 1<<63 // signed order
	}
	r.identity()
	r.sortByKeys()
	for i, v := range vals {
		r.keys[i] = descKey(v)
	}
	copy(order[:len(vals)], r.sortByKeys())
	rankerPool.Put(r)
}
