package quant

import (
	"math"
	"math/bits"
)

// poolSelector finds the re-rank pool of a two-phase scan in linear time: the
// p-th largest of the int32 scores (the pool boundary) and, as an ascending
// position list, every score at or above it. Candidates TIED with the
// boundary are therefore in the pool — the rule that makes the two-phase
// scan exact in degenerate regimes: when quantization collapses many scores
// to the same integer (all-constant tables, 1-ulp near-ties), the tie set
// spans the whole collapse and the re-rank becomes exhaustive over it.
//
// The order statistic is a bucket histogram (kth): counts over [min, max] in
// a number of buckets sized from the input, a walk down from the top bucket
// to the one holding rank p, and a recursion into that bucket alone. What
// keeps the sweep over n scores at one comparison each is that the histogram
// only ever sees candidates: run keeps a list of the positions that reach a
// lower bound of the boundary, and whenever the list fills it is cut back to
// its own p-th largest — a bound that can only rise towards the boundary. At
// small n the list never fills and the histogram takes everything; at tiny p
// it holds a few dozen entries and the cut is an insertion sort.
//
// The zero value is ready; the buffers grow to the largest request served
// and are then reused. A poolSelector must not be shared between goroutines.
type poolSelector struct {
	counts [maxBuckets]uint32
	pool   []int32 // candidate positions, ascending
	limit  int     // the candidate count that triggers a cut
	vals   []int32 // their scores, consumed by kth
}

const (
	minBuckets = 16
	maxBuckets = 2048 // 8 KB of counters
	// sortBelow is the input size at which kth stops counting and sorts.
	sortBelow = 16
	// poolSlack is the candidate list's capacity in units of p: the list is
	// cut back to about p entries each time the scores seen grow by this
	// factor, so the cuts cost O(p·log(n/p)) in all.
	poolSlack = 4
	// branchyFrom·p is the position from which run's sweep trusts the branch
	// predictor: a score there reaches the bound about once in branchyFrom.
	branchyFrom = 16
)

// run returns the p-th largest value of scores (math.MinInt32 when p >=
// len(scores): everything pools) and the ascending positions x with
// scores[x] >= it. The list aliases the selector and is valid until the next
// call.
func (ps *poolSelector) run(scores []int32, p int) (int32, []int32) {
	n := len(scores)
	p = max(p, 1)
	if p >= n {
		ps.pool = grow(ps.pool, n)
		for x := range ps.pool {
			ps.pool[x] = int32(x)
		}
		return math.MinInt32, ps.pool
	}
	limit := poolSlack * p
	if limit >= n {
		// The list would never fill: count the scores themselves, then
		// collect. The store is unconditional and the cursor moves on a hit,
		// so the sweep has no unpredictable branch.
		ps.vals = grow(ps.vals, n)
		copy(ps.vals, scores)
		th := ps.kth(ps.vals, p)
		ps.pool = grow(ps.pool, n+1)
		m := 0
		for x, v := range scores {
			ps.pool[m] = int32(x)
			m += reaches(v, th)
		}
		return th, ps.pool[:m]
	}
	ps.pool, ps.limit = grow(ps.pool, limit+1), limit
	m, bound := 0, int32(math.MinInt32)
	// While a score still has a real chance of reaching the bound (about
	// p/x at position x) the sweep is branchless; past branchyFrom·p a
	// predicted branch skips the store instead.
	head := min(n, branchyFrom*p)
	for x, v := range scores[:head] {
		ps.pool[m] = int32(x)
		m += reaches(v, bound)
		if m == ps.limit {
			bound, m = ps.cut(scores, m, p)
		}
	}
	for x := head; x < n; x++ {
		if scores[x] < bound {
			continue
		}
		ps.pool[m] = int32(x)
		m++
		if m == ps.limit {
			bound, m = ps.cut(scores, m, p)
		}
	}
	bound, m = ps.cut(scores, m, p)
	return bound, ps.pool[:m]
}

// reaches is 1 when v >= th and 0 otherwise, without a branch: whether a
// score reaches a threshold is a coin toss the predictor loses, and every
// sweep here stores unconditionally and advances its cursor by this.
func reaches(v, th int32) int {
	return int(uint64(int64(th)-int64(v)-1) >> 63)
}

// cut narrows the candidate list ps.pool[:m] (at least p positions) to those
// scoring at or above the p-th largest score among them, in place, and
// returns that score and how many are left. A list still near its limit
// after the cut is mostly ties with the bound; doubling the limit then keeps
// the cuts linear in the scores seen.
func (ps *poolSelector) cut(scores []int32, m, p int) (int32, int) {
	pool := ps.pool[:m]
	ps.vals = grow(ps.vals, m)
	for i, x := range pool {
		ps.vals[i] = scores[x]
	}
	th := ps.kth(ps.vals, p)
	m = 0
	for _, x := range pool {
		pool[m] = x
		m += reaches(scores[x], th)
	}
	if 2*m > ps.limit {
		ps.limit = 2 * m
		ps.pool = append(pool[:m], make([]int32, ps.limit+1-m)...)
	}
	return th, m
}

// kth returns the r-th largest of vals (1 <= r <= len(vals)), reordering and
// overwriting vals. Each round counts the values into buckets of equal width
// over [min, max], finds the bucket holding rank r from the top, and keeps
// only that bucket's values; a round at least halves the span (there are at
// least two buckets and the kept one is narrower than the span), so there are
// at most 32 and in practice two.
func (ps *poolSelector) kth(vals []int32, r int) int32 {
	for len(vals) > sortBelow {
		lo, hi := vals[0], vals[0]
		for _, v := range vals[1:] {
			lo, hi = min(lo, v), max(hi, v)
		}
		if lo == hi {
			return lo
		}
		// Offsets from lo are taken in uint32: hi − lo can exceed MaxInt32.
		base := uint32(lo)
		span := uint32(hi) - base
		nb := min(max(minBuckets, 1<<bits.Len(uint(len(vals)/4))), maxBuckets)
		shift := max(0, bits.Len32(span)-bits.TrailingZeros(uint(nb)))
		counts := ps.counts[:span>>shift+1]
		clear(counts)
		for _, v := range vals {
			counts[(uint32(v)-base)>>shift]++
		}
		b := len(counts) - 1
		for ; int(counts[b]) < r; b-- {
			r -= int(counts[b])
		}
		if shift == 0 {
			return lo + int32(b)
		}
		w := 0
		for _, v := range vals {
			vals[w] = v
			// 1 when v falls in bucket b (bucket numbers are below 2^31).
			w += int((((uint32(v)-base)>>shift ^ uint32(b)) - 1) >> 31)
		}
		vals = vals[:w]
	}
	// Insertion sort, descending.
	for i := 1; i < len(vals); i++ {
		v, j := vals[i], i
		for ; j > 0 && vals[j-1] < v; j-- {
			vals[j] = vals[j-1]
		}
		vals[j] = v
	}
	return vals[r-1]
}

// grow returns s with length n, reallocating (with headroom) only when the
// capacity is short; the contents are not kept.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, 2*n)
	}
	return s[:n]
}
