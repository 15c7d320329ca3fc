package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"entmatcher/internal/matrix"
)

// HungarianSparse solves the linear assignment problem restricted to a
// candidate graph: Jonker–Volgenant shortest augmenting paths run over each
// row's top-C candidate edges only, with a lazy-deletion binary heap ordered
// by (distance, column) as the pivot order, and one-shot dual updates from
// the final distance labels. The dense decider runs the same search
// (solveSparseLAP) with whole dense rows behind its candidate prefixes, so at
// full candidate width (C ≥ max(rows, cols)) the assignment is bit-identical
// to the dense decider's.
//
// Below full width the restricted problem may be infeasible for some rows: a
// row whose reachable region contains no free column abandons the search and
// abstains — the M→∞ limit of a cost-augmented dummy edge, without big-M
// numerical contamination. Each failed search also proves a Hall violator:
// every column the alternating tree touched is matched to a row inside the
// tree, and those rows have no candidate edges outside the touched columns,
// so no future augmenting path can enter the region and leave it. The solver
// marks the region dead and skips it in all later searches. This
// amortization is what makes 100k-row instances tractable — without it,
// every unmatchable row re-walks its whole component to prove
// unreachability, which is quadratic in the component size.
//
// Each search also stops doing work that cannot change its augmenting path
// (solveSparseLAP states the argument): it pushes no heap entry at or above
// the best free column relaxed so far, and it leaves a score-sorted row as
// soon as a lower bound on the row's remaining labels — its next score
// against the largest column dual, vmax — exceeds that column's label.
// Every pop, label, dual update and assignment is the uncut search's.
//
// When rows > cols the solver runs on the reverse graph (the transposed
// problem's forward graph), exactly as the dense decider transposes, so the
// two agree at full candidate width.
type HungarianSparse struct {
	// C is the per-row candidate budget.
	C int
}

// Name returns "Hun.-sparse".
func (*HungarianSparse) Name() string { return "Hun.-sparse" }

// Match runs the sparse optimal assignment.
func (m *HungarianSparse) Match(ctx *Context) (*Result, error) {
	if ctx == nil {
		return nil, ErrNoMatrix
	}
	if m.C < 1 {
		return nil, fmt.Errorf("hungarian-sparse: candidate budget must be positive, got %d", m.C)
	}
	start := time.Now()
	cc := ctx.Cancellation()
	src, rows, cols, err := sparseSource(ctx)
	if err != nil {
		return nil, err
	}
	// The solver runs on one orientation only; the reverse graph is needed
	// just for tall inputs, so square and wide cases skip its heap pass —
	// at scale that halves the non-GEMM cost of the streamed build.
	cRev := m.C
	if rows <= cols {
		cRev = 0
	}
	fwd, rev, err := matrix.BuildCandGraphs(cc, src, m.C, cRev)
	if err != nil {
		return nil, err
	}

	// Mirrors the dense decider: the solver runs on the side with fewer
	// rows, for tall inputs the reverse graph, whose rows are the original
	// columns.
	g := fwd
	if rows > cols {
		g = rev
	}
	solved, _, err := solveSparseLAP(cc, g, nil)
	if err != nil {
		return nil, err
	}
	pairs, abstained := lapAnswer(solved, rows, cols-ctx.NumDummies, rows > cols, func(i, j int) float64 {
		v, ok := edgeScore(fwd, i, j)
		if !ok && rev != nil {
			// Tall-matrix assignments come from the reverse graph; the edge
			// may be outside row i's forward block.
			v, _ = edgeScore(rev, j, i)
		}
		return v
	})
	// The graphs, the solver's dual/assignment/scratch arrays over the
	// rows + columns of the solved orientation, the search heap (worst case
	// one entry per candidate edge), and the streaming tile.
	extra := fwd.SizeBytes() + int64(rows+cols)*49 +
		int64(rows)*int64(m.C)*12 +
		int64(matrix.DefaultTileRows*matrix.DefaultTileCols)*8
	if rev != nil {
		extra += rev.SizeBytes()
	}
	return &Result{
		Matcher:    m.Name(),
		Pairs:      pairs,
		Abstained:  abstained,
		Elapsed:    time.Since(start),
		ExtraBytes: extra,
	}, nil
}

// lapAnswer turns the solver's answer on the solved orientation into pairs
// and abstentions: solved[r] is the column of graph row r, or -1, and a tall
// input was solved transposed, so its answer is mapped back to the original
// rows. A row left unassigned or assigned to one of the dummy columns from
// realCols on abstains; score gives a pair's score.
func lapAnswer(solved []int, rows, realCols int, tall bool, score func(i, j int) float64) ([]Pair, []int) {
	assigned := solved // row -> column or -1
	if tall {
		assigned = make([]int, rows)
		for i := range assigned {
			assigned[i] = -1
		}
		for j, i := range solved {
			if i >= 0 {
				assigned[i] = j
			}
		}
	}
	pairs := make([]Pair, 0, rows)
	var abstained []int
	for i, j := range assigned {
		if j < 0 || j >= realCols {
			abstained = append(abstained, i)
			continue
		}
		pairs = append(pairs, Pair{Source: i, Target: j, Score: score(i, j)})
	}
	return pairs, abstained
}

// edgeScore finds the stored score of edge (i, j) in g, scanning row i's
// candidate list.
func edgeScore(g *matrix.CandGraph, i, j int) (float64, bool) {
	cand, scores := g.Row(i)
	for x, c := range cand {
		if int(c) == j {
			return scores[x], true
		}
	}
	return 0, false
}

// distHeap is a binary min-heap of (distance, column) pairs ordered
// lexicographically — smallest distance first, ties to the smallest column
// index, which realizes the solver-wide pivot tie-break. Entries are never
// deleted in place; stale ones (whose distance no longer matches the
// column's current label) are skipped at pop time.
type distHeap struct {
	d []float64
	j []int32
}

func (h *distHeap) len() int { return len(h.d) }
func (h *distHeap) reset()   { h.d, h.j = h.d[:0], h.j[:0] }
func (h *distHeap) less(a, b int) bool {
	return h.d[a] < h.d[b] || (h.d[a] == h.d[b] && h.j[a] < h.j[b])
}

func (h *distHeap) swap(a, b int) {
	h.d[a], h.d[b] = h.d[b], h.d[a]
	h.j[a], h.j[b] = h.j[b], h.j[a]
}

func (h *distHeap) push(d float64, j int32) {
	h.d = append(h.d, d)
	h.j = append(h.j, j)
	for c := len(h.d) - 1; c > 0; {
		p := (c - 1) / 2
		if !h.less(c, p) {
			break
		}
		h.swap(c, p)
		c = p
	}
}

func (h *distHeap) pop() (float64, int32) {
	d0, j0 := h.d[0], h.j[0]
	last := len(h.d) - 1
	h.swap(0, last)
	h.d, h.j = h.d[:last], h.j[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && h.less(c+1, c) {
			c++
		}
		if !h.less(c, p) {
			break
		}
		h.swap(c, p)
		p = c
	}
	return d0, j0
}

// compact drops the entries that can no longer pop — stale ones, whose
// distance is not their column's label, and those of scanned columns — by
// pushing the live ones again into the front of the same arrays. Pops come
// in (distance, column) order over the live entries, so the sequence of
// live pops is unchanged.
func (h *distHeap) compact(dist []float64, scanned []bool) {
	d, j := h.d, h.j
	h.reset()
	for x, c := range j {
		if !scanned[c] && d[x] == dist[c] {
			h.push(d[x], c)
		}
	}
}

// lapWork tallies one solveSparseLAP run: the candidate edges whose label
// it computed, its heap pushes, the columns it scanned (one row scan each)
// and the row scans that went on to the whole dense row. A seed fixes all
// four, so a change to the search can be held to them exactly.
type lapWork struct {
	relaxed, pushes, scanned, wholeRows int
}

// solveSparseLAP returns, for each graph row, the assigned column (-1 for
// abandoned rows), maximizing total score over the candidate edges: per
// free row, a Jonker–Volgenant shortest-path search over reduced costs
// (cost = −score − u − v), with one-shot dual updates from the final
// distance labels (u[p[j]] += df − dist[j], v[j] −= df − dist[j] over the
// scanned columns), strict-< relaxation and (distance, column)
// lexicographic pivot order — realized with a lazy-deletion binary heap and
// touch lists so one search step costs O(C log) instead of O(cols). Columns
// inside failed alternating trees are marked dead (see the HungarianSparse
// comment for the Hall argument) and skipped by all later searches; a
// failure never occurs at full candidate width, where every search reaches a
// free column.
//
// With s non-nil (the dense decider), g holds a sorted prefix of every row
// of s. A row scan whose prefix ends before the early exit below rules out
// the rest of the row — its scores are at most the prefix's last — goes on
// to relax the whole row of s in index order: for the search's first row,
// after undoing its prefix, as the uncut search's first pass.
// The order in which one row's columns are relaxed changes no pop, so every
// search is the full-width one over s. A whole-row pass can push up to
// cols entries, so the heap is compacted to its live entries whenever one
// leaves it above 2·cols: it then never holds more than NNZ(g) + 3·cols
// entries, and is made with that capacity.
//
// Two cuts skip work that cannot change the augmenting path; every pop,
// label, dual update and assignment is the one the uncut search makes.
//   - Free-column bound. (bd, bj) is the least (label, column) of any free
//     column relaxed so far in this search. The search ends at the first
//     free column it pops, which is never above the bound, so an entry at or
//     above (bd, bj) cannot pop before the search ends and is not pushed.
//     A failed search never relaxes a free column: its bound stays +Inf and
//     its touched region — the dead region it marks — is unchanged.
//   - Sorted-row early exit. A row's candidates come in descending score
//     order, and every column dual is at most vmax, so
//     d + (−score − u − vmax), evaluated in the label's own order, is a lower
//     bound on this candidate's label and on every later one's (rounding is
//     monotone). Once it is strictly above bd the rest of the row is
//     skipped; the equal case still runs, for the column tie-break. The
//     duals only fall in exact arithmetic, so vmax is 0 unless a rounded
//     dual update lifts some v above it, and it is raised when one does.
//
// A search that ends at an infinite label reached its free column only
// through a −Inf edge. The row abstains, as after a failed search, but marks
// nothing dead: a free column was reachable, so the region is no Hall
// violator. No −Inf edge is ever matched, so the duals stay finite and every
// label is finite or +Inf — the total order both cuts need.
func solveSparseLAP(ctx context.Context, g *matrix.CandGraph, s *matrix.Dense) ([]int, lapWork, error) {
	n, m := g.Rows(), g.Cols()
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1) // p[j]: row (1-based) assigned to column j; 0 = free
	pred := make([]int32, m+1)
	dist := make([]float64, m+1)
	scanned := make([]bool, m+1)
	dead := make([]bool, m+1)
	touched := make([]int32, 0, 256) // columns with a finite label, for reset
	ready := make([]int32, 0, 256)   // scanned columns in pop order
	var h distHeap
	if s != nil {
		// The bounds the dense search keeps within (see above).
		h.d = make([]float64, 0, g.NNZ()+3*m)
		h.j = make([]int32, 0, g.NNZ()+3*m)
		touched = make([]int32, 0, 2*m)
		ready = make([]int32, 0, m)
	}
	var work lapWork
	vmax := 0.0 // the largest column dual
	for j := range dist {
		dist[j] = math.Inf(1)
	}

	for i := 1; i <= n; i++ {
		if err := ctxErr(ctx); err != nil {
			return nil, work, err
		}
		p[0] = i
		bd, bj := math.Inf(1), math.MaxInt // free-column bound
		cand, scores := g.Row(i - 1)
		ui := u[i]
		whole := s != nil && len(cand) < m // the row goes on past its prefix
		for x, c := range cand {
			if -scores[x]-ui-vmax > bd {
				whole = false
				break
			}
			j := int(c) + 1
			if dead[j] {
				continue
			}
			work.relaxed++
			d := -scores[x] - ui - v[j]
			if d > bd || (d == bd && j >= bj) {
				continue
			}
			if p[j] == 0 {
				bd, bj = d, j
			}
			dist[j] = d
			pred[j] = 0
			touched = append(touched, int32(j))
			h.push(d, int32(j))
			work.pushes++
		}
		if whole && (len(cand) == 0 || -scores[len(cand)-1]-ui-vmax <= bd) {
			// Undo the prefix and run the uncut search's first pass over
			// the whole row, in index order.
			work.wholeRows++
			for _, jc := range touched {
				dist[jc] = math.Inf(1)
			}
			touched = touched[:0]
			h.reset()
			bd, bj = math.Inf(1), math.MaxInt
			for jj, sc := range s.Row(i - 1) {
				j := jj + 1
				if dead[j] {
					continue
				}
				d := -sc - ui - v[j]
				if d > bd || (d == bd && j >= bj) {
					continue
				}
				if p[j] == 0 {
					bd, bj = d, j
				}
				dist[j] = d
				pred[j] = 0
				touched = append(touched, int32(j))
				h.push(d, int32(j))
				work.pushes++
			}
		}
		jf := -1 // free column ending the shortest augmenting path
		var df float64
		pops := 0
		for h.len() > 0 {
			d, jc := h.pop()
			j1 := int(jc)
			if scanned[j1] || d != dist[j1] {
				continue // stale entry
			}
			if p[j1] == 0 {
				jf, df = j1, d
				break
			}
			scanned[j1] = true
			ready = append(ready, jc)
			work.scanned++
			if pops++; pops&63 == 0 {
				if err := ctxErr(ctx); err != nil {
					return nil, work, err
				}
			}
			i2 := p[j1]
			u2 := u[i2]
			cand2, scores2 := g.Row(i2 - 1)
			whole := s != nil && len(cand2) < m
			for x, c := range cand2 {
				if d+(-scores2[x]-u2-vmax) > bd {
					whole = false
					break
				}
				j := int(c) + 1
				if scanned[j] || dead[j] {
					continue
				}
				work.relaxed++
				nd := d + (-scores2[x] - u2 - v[j])
				if !(nd < dist[j]) || nd > bd || (nd == bd && j >= bj) {
					continue
				}
				if math.IsInf(dist[j], 1) {
					touched = append(touched, int32(j))
				}
				if p[j] == 0 {
					bd, bj = nd, j
				}
				dist[j] = nd
				pred[j] = jc
				h.push(nd, int32(j))
				work.pushes++
			}
			if whole && (len(cand2) == 0 || d+(-scores2[len(cand2)-1]-u2-vmax) <= bd) {
				// The same relaxation over the whole row, in index order. A
				// prefix column relaxed again keeps its label: the new one
				// is the same, or cut by a bound that has only fallen.
				// The bound test runs first: most of the row fails it.
				work.wholeRows++
				row := s.Row(i2 - 1)
				for jj, vj := range v[1 : len(row)+1] {
					nd := d + (-row[jj] - u2 - vj)
					j := jj + 1
					if nd > bd || scanned[j] || dead[j] || !(nd < dist[j]) || (nd == bd && j >= bj) {
						continue
					}
					if math.IsInf(dist[j], 1) {
						touched = append(touched, int32(j))
					}
					if p[j] == 0 {
						bd, bj = nd, j
					}
					dist[j] = nd
					pred[j] = jc
					h.push(nd, int32(j))
					work.pushes++
				}
				if h.len() > 2*m {
					h.compact(dist, scanned)
				}
			}
		}
		switch {
		case jf < 0:
			// No free column reachable: row i goes to its fallback dummy
			// (abstains), and every touched column — all matched within the
			// failed tree — is dead for the rest of the run.
			for _, jc := range touched {
				dead[jc] = true
			}
		case math.IsInf(df, 1):
			// Reachable only through a −Inf edge: row i abstains, nothing
			// is dead (see above).
		default:
			u[i] += df
			for _, jc := range ready {
				j := int(jc)
				u[p[j]] += df - dist[j]
				v[j] -= df - dist[j]
				if v[j] > vmax {
					vmax = v[j]
				}
			}
			for j := jf; j != 0; {
				pj := int(pred[j])
				p[j] = p[pj]
				j = pj
			}
		}
		// Lazy reset of the per-search column state.
		for _, jc := range touched {
			dist[jc] = math.Inf(1)
			scanned[jc] = false
		}
		touched = touched[:0]
		ready = ready[:0]
		h.reset()
	}
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			out[p[j]-1] = j - 1
		}
	}
	return out, work, nil
}

// NewHungarianSparse returns the sparse optimal-assignment matcher with
// candidate budget c.
func NewHungarianSparse(c int) *HungarianSparse { return &HungarianSparse{C: c} }
