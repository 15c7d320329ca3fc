package conformance

import (
	"fmt"
	"math"
	"sort"

	"entmatcher/internal/core"
	"entmatcher/internal/matrix"
)

// Brute-force oracles. Each is the textbook O(n·m) (or exponential)
// definition of a quantity the production kernels compute with fused,
// parallel or streaming shortcuts. Oracles are deliberately naive — a
// different implementation strategy is the whole point — but they honor the
// same documented tie-break contracts (first occurrence for maxima,
// ascending index among equal values for top-k and ranks), so exact
// comparison is meaningful.

// OracleArgmax returns, per row, the index of the first strictly-greatest
// element, or −1 for rows with no selectable maximum (width zero, all NaN
// or all −Inf) — the documented RowMax contract.
func OracleArgmax(s *matrix.Dense) []int {
	idx := make([]int, s.Rows())
	for i := range idx {
		best, bi := math.Inf(-1), -1
		for j := 0; j < s.Cols(); j++ {
			if v := s.At(i, j); v > best {
				best, bi = v, j
			}
		}
		idx[i] = bi
	}
	return idx
}

// OracleTopK returns the k largest entries of every row by full sort:
// descending value, ties by ascending column index — the documented RowTopK
// contract (minHeap.offer retains the earliest index among equal boundary
// values, which is exactly the first-k prefix of this order).
func OracleTopK(s *matrix.Dense, k int) []matrix.TopK {
	out := make([]matrix.TopK, s.Rows())
	for i := range out {
		row := s.Row(i)
		order := make([]int, len(row))
		for j := range order {
			order[j] = j
		}
		sort.Slice(order, func(a, b int) bool {
			if row[order[a]] != row[order[b]] {
				return row[order[a]] > row[order[b]]
			}
			return order[a] < order[b]
		})
		n := k
		if n > len(row) {
			n = len(row)
		}
		tk := matrix.TopK{Values: make([]float64, n), Indices: make([]int, n)}
		for x := 0; x < n; x++ {
			tk.Indices[x] = order[x]
			tk.Values[x] = row[order[x]]
		}
		out[i] = tk
	}
	return out
}

// OracleRanks returns the per-row descending ranks (largest = 1, ties by
// column order) — the documented RowRanksInPlace contract — without mutating
// the input.
func OracleRanks(s *matrix.Dense) *matrix.Dense {
	out := matrix.New(s.Rows(), s.Cols())
	for i := 0; i < s.Rows(); i++ {
		row := s.Row(i)
		order := make([]int, len(row))
		for j := range order {
			order[j] = j
		}
		sort.Slice(order, func(a, b int) bool {
			if row[order[a]] != row[order[b]] {
				return row[order[a]] > row[order[b]]
			}
			return order[a] < order[b]
		})
		dst := out.Row(i)
		for r, j := range order {
			dst[j] = float64(r + 1)
		}
	}
	return out
}

// OracleCSLS computes the textbook CSLS rescaling 2·S(u,v) − φ_s(u) − φ_t(v)
// with φ means taken over fully-sorted top-k sets, in the same left-to-right
// evaluation order as the production transform so that k=1 comparisons can be
// exact.
func OracleCSLS(s *matrix.Dense, k int) *matrix.Dense {
	rows, cols := s.Rows(), s.Cols()
	phiS := make([]float64, rows)
	for i, tk := range OracleTopK(s, k) {
		phiS[i] = meanOf(tk.Values)
	}
	phiT := make([]float64, cols)
	for j, tk := range OracleTopK(s.Transpose(), k) {
		phiT[j] = meanOf(tk.Values)
	}
	out := matrix.New(rows, cols)
	for i := 0; i < rows; i++ {
		src, dst := s.Row(i), out.Row(i)
		for j := range dst {
			dst[j] = (src[j]*2 - phiS[i]) - phiT[j]
		}
	}
	return out
}

func meanOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// OracleSinkhorn runs the textbook Sinkhorn operation — exp((S − max)/τ)
// followed by L alternating row/column normalizations — with plain sequential
// loops, mirroring the production transform's stabilization and its eps guard
// against zero sums.
func OracleSinkhorn(s *matrix.Dense, l int, tau float64) *matrix.Dense {
	rows, cols := s.Rows(), s.Cols()
	gmax := math.Inf(-1)
	for i := 0; i < rows; i++ {
		for _, v := range s.Row(i) {
			if v > gmax {
				gmax = v
			}
		}
	}
	if math.IsInf(gmax, -1) {
		gmax = 0
	}
	out := matrix.New(rows, cols)
	for i := 0; i < rows; i++ {
		src, dst := s.Row(i), out.Row(i)
		for j := range dst {
			dst[j] = math.Exp((src[j] - gmax) / tau)
		}
	}
	const eps = 1e-300
	for it := 0; it < l; it++ {
		for i := 0; i < rows; i++ {
			row := out.Row(i)
			var sum float64
			for _, v := range row {
				sum += v
			}
			if math.Abs(sum) < eps {
				continue
			}
			for j := range row {
				row[j] /= sum
			}
		}
		for j := 0; j < cols; j++ {
			var sum float64
			for i := 0; i < rows; i++ {
				sum += out.At(i, j)
			}
			if math.Abs(sum) < eps {
				continue
			}
			for i := 0; i < rows; i++ {
				out.Set(i, j, out.At(i, j)/sum)
			}
		}
	}
	return out
}

// OracleRInfPB is RInf under progressive blocking at block size c (the
// paper's RInf-pb; RInf-sparse's contract at every c) by its definition,
// with full sorts and one rank map per entity. Each row ranks its top-c
// columns (OracleTopK) by the preference S(u,v) − max_u' S(u',v) + 1, each
// column its top-c rows by S(u,v) − max_v' S(u,v') + 1, both descending with
// ties by ascending entity id. A candidate's cost is the mean of its two
// ranks, c+1 standing in for a rank outside the other side's block, and each
// row picks its candidate of least cost, ties to the smaller column. The
// result is one pair per row with a non-empty block (Score: minus the cost);
// which of those a dummy column turns into abstentions is the caller's.
func OracleRInfPB(s *matrix.Dense, c int) []core.Pair {
	rows, cols := s.Rows(), s.Cols()
	rowMax, colMax := make([]float64, rows), make([]float64, cols)
	for i := range rowMax {
		rowMax[i] = math.Inf(-1)
	}
	for j := range colMax {
		colMax[j] = math.Inf(-1)
	}
	for i := 0; i < rows; i++ {
		for j, v := range s.Row(i) {
			if v > rowMax[i] {
				rowMax[i] = v
			}
			if v > colMax[j] {
				colMax[j] = v
			}
		}
	}
	// ranks maps each entity of a block to its 1-based rank by (pref desc,
	// entity asc).
	ranks := func(tk matrix.TopK, best []float64) map[int]int {
		order := make([]int, len(tk.Indices))
		for x := range order {
			order[x] = x
		}
		pref := func(x int) float64 { return tk.Values[x] - best[tk.Indices[x]] + 1 }
		sort.Slice(order, func(a, b int) bool {
			pa, pb := pref(order[a]), pref(order[b])
			if pa != pb {
				return pa > pb
			}
			return tk.Indices[order[a]] < tk.Indices[order[b]]
		})
		out := make(map[int]int, len(order))
		for r, x := range order {
			out[tk.Indices[x]] = r + 1
		}
		return out
	}
	fwd := OracleTopK(s, c)
	colRanks := make([]map[int]int, cols)
	for j, tk := range OracleTopK(s.Transpose(), c) {
		colRanks[j] = ranks(tk, rowMax)
	}
	penalty := float64(c + 1)
	var pairs []core.Pair
	for i, tk := range fwd {
		rowRanks := ranks(tk, colMax)
		best, bestJ := math.Inf(1), -1
		for _, j := range tk.Indices {
			r2 := penalty
			if r, ok := colRanks[j][i]; ok {
				r2 = float64(r)
			}
			cost := (float64(rowRanks[j]) + r2) / 2
			if cost < best || (cost == best && j < bestJ) {
				best, bestJ = cost, j
			}
		}
		if bestJ >= 0 {
			pairs = append(pairs, core.Pair{Source: i, Target: bestJ, Score: -best})
		}
	}
	return pairs
}

// OracleAssignmentValue returns the maximum total score of a complete
// assignment of the smaller side of s to distinct members of the larger side,
// by exhaustive bitmask dynamic programming. It certifies the Hungarian
// decider's optimality. Up to 20 columns the mask runs over the columns;
// wider matrices take oracleWideAssignment, whose mask runs over the at most
// 16 rows.
func OracleAssignmentValue(s *matrix.Dense) (float64, error) {
	if s.Rows() > s.Cols() {
		return OracleAssignmentValue(s.Transpose())
	}
	n, m := s.Rows(), s.Cols()
	if m > 20 {
		return oracleWideAssignment(s)
	}
	ninf := math.Inf(-1)
	size := 1 << m
	best := make([]float64, size)
	for mask := 1; mask < size; mask++ {
		best[mask] = ninf
	}
	for mask := 0; mask < size; mask++ {
		if best[mask] == ninf && mask != 0 {
			continue
		}
		i := popcount(mask) // next row to place
		if i >= n {
			continue
		}
		row := s.Row(i)
		for j := 0; j < m; j++ {
			if mask&(1<<j) != 0 {
				continue
			}
			next := mask | 1<<j
			if v := best[mask] + row[j]; v > best[next] {
				best[next] = v
			}
		}
	}
	ans := ninf
	for mask := 0; mask < size; mask++ {
		if popcount(mask) == n && best[mask] > ans {
			ans = best[mask]
		}
	}
	return ans, nil
}

// oracleWideAssignment is OracleAssignmentValue for rows ≤ 16 < cols: the
// columns are taken in order, and best[mask] is the largest total of the rows
// in mask assigned to distinct columns among those taken so far.
func oracleWideAssignment(s *matrix.Dense) (float64, error) {
	n, m := s.Rows(), s.Cols()
	if n > 16 {
		return 0, fmt.Errorf("conformance: exhaustive assignment over %d columns limited to 16 rows, got %d", m, n)
	}
	ninf := math.Inf(-1)
	best := make([]float64, 1<<n)
	for mask := 1; mask < len(best); mask++ {
		best[mask] = ninf
	}
	for j := 0; j < m; j++ {
		// Descending masks read only entries column j has not yet extended.
		for mask := len(best) - 1; mask >= 0; mask-- {
			if best[mask] == ninf {
				continue
			}
			for i := 0; i < n; i++ {
				if mask&(1<<i) == 0 {
					if v := best[mask] + s.At(i, j); v > best[mask|1<<i] {
						best[mask|1<<i] = v
					}
				}
			}
		}
	}
	return best[len(best)-1], nil
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// PairValue sums s over the matched pairs — the objective the assignment
// certificate compares against.
func PairValue(s *matrix.Dense, pairs []core.Pair) float64 {
	var total float64
	for _, p := range pairs {
		total += s.At(p.Source, p.Target)
	}
	return total
}

// BlockingPair is a (row, column) pair that destabilizes a matching: both
// sides strictly prefer each other over their assigned partners under the
// tie-broken strict preference orders (higher score wins; equal scores prefer
// the lower index — the same tie-break the Gale-Shapley decider sorts with).
type BlockingPair struct {
	Row, Col int
}

// OracleBlockingPairs scans all rows×cols pairs of a dummy-free matching for
// blocking pairs. matchedCol maps each row to its column (−1 if unmatched);
// an unmatched participant prefers any partner over none. An empty return
// certifies stability.
func OracleBlockingPairs(s *matrix.Dense, pairs []core.Pair, abstained []int) []BlockingPair {
	rows, cols := s.Rows(), s.Cols()
	matchedCol := make([]int, rows)
	for i := range matchedCol {
		matchedCol[i] = -1
	}
	matchedRow := make([]int, cols)
	for j := range matchedRow {
		matchedRow[j] = -1
	}
	for _, p := range pairs {
		matchedCol[p.Source] = p.Target
		matchedRow[p.Target] = p.Source
	}
	// prefers reports whether value a at index ia strictly beats value b at
	// index ib under the tie-broken order.
	prefers := func(a float64, ia int, b float64, ib int) bool {
		if a != b {
			return a > b
		}
		return ia < ib
	}
	var out []BlockingPair
	for i := 0; i < rows; i++ {
		row := s.Row(i)
		cur := matchedCol[i]
		for j := 0; j < cols; j++ {
			if j == cur {
				continue
			}
			rowWants := cur < 0 || prefers(row[j], j, row[cur], cur)
			if !rowWants {
				continue
			}
			partner := matchedRow[j]
			colWants := partner < 0 || prefers(row[j], i, s.At(partner, j), partner)
			if colWants {
				out = append(out, BlockingPair{Row: i, Col: j})
			}
		}
	}
	return out
}
