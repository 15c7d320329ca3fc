package core

import (
	"fmt"

	"entmatcher/internal/matrix"
)

// lapStartWidth is C₀, the width of the candidate graph the dense decider's
// search starts from: each row's C₀ best scores, in descending order.
const lapStartWidth = 32

// HungarianDecider solves the linear assignment problem on the score matrix
// (the paper's § 3.5, Hun.): it finds the 1-to-1 assignment of rows to
// columns maximizing the total score, via the shortest-augmenting-path
// algorithm with dual potentials (Jonker & Volgenant 1987 [21], the
// implementation the paper uses). Time O(n²·m), space O(n·m).
//
// The search is solveSparseLAP, the one HungarianSparse runs, started on the
// top-C₀ candidate graph of the matrix (C₀ = lapStartWidth). A row scan
// reads the row's C₀ best scores in descending order and stops as soon as
// the rest cannot reach the search's free-column bound; only a row whose
// prefix ends first is relaxed over the whole dense row, in index order.
// Either way the scan does what the uncut full-width search does to every
// pop, label, dual update and assignment, so the answer is the full-width
// one, whatever C₀ is. A full-width search always reaches a free column, so
// no region is ever marked dead.
//
// The matrix may be rectangular with rows ≤ cols; when rows > cols the
// decider solves the transposed problem. Rows assigned to dummy columns
// (ctx.NumDummies trailing columns) are reported as abstained.
//
// The graph build (Dense.RowTopK) is one unpolled pass over the matrix;
// after it the search checks ctx.Ctx cooperatively once per row and every 64
// row scans, so a deadline or cancel aborts a long search within O(64·cols)
// work — this matters because a single Hungarian run dominates the whole
// pipeline at DWY100K scale (the paper's Figure 5). NaN scores have no place
// in the candidate order, so a matrix holding one is an error.
type HungarianDecider struct{}

// Name returns "hungarian".
func (HungarianDecider) Name() string { return "hungarian" }

// Decide computes the optimal assignment.
func (HungarianDecider) Decide(ctx *Context, s *matrix.Dense) ([]Pair, []int, error) {
	pairs, abstained, _, err := decideHungarian(ctx, s, lapStartWidth)
	return pairs, abstained, err
}

// decideHungarian is Decide with the start width c0 as a parameter, and the
// search's work tally.
func decideHungarian(ctx *Context, s *matrix.Dense, c0 int) ([]Pair, []int, lapWork, error) {
	rows, cols := s.Rows(), s.Cols()
	if rows == 0 || cols == 0 {
		return nil, nil, lapWork{}, fmt.Errorf("hungarian: empty matrix %d×%d", rows, cols)
	}
	cc := ctx.Cancellation()
	// More rows than columns: solve on the transpose, whose rows are the
	// original columns, leaving some original rows unmatched.
	t := s
	if rows > cols {
		t = s.Transpose()
	}
	g, err := matrix.NewCandGraph(t.Cols(), t.RowTopK(c0))
	if err != nil {
		return nil, nil, lapWork{}, fmt.Errorf("hungarian: %w", err)
	}
	solved, work, err := solveSparseLAP(cc, g, t)
	if err != nil {
		return nil, nil, work, err
	}
	pairs, abstained := lapAnswer(solved, rows, cols-ctx.NumDummies, rows > cols, s.At)
	return pairs, abstained, work, nil
}

// ExtraBytes bounds what Decide holds besides s, per the package accounting
// rule. With n ≤ m the solved orientation and c = min(C₀, m):
//   - the start graph, n·c edges at 12 bytes plus n+1 row offsets, and the
//     per-row selections it is copied from (c values and c indices at 8
//     bytes, and two slice headers, per row);
//   - the search's arrays: one Θ(n) dual, the m+1 column state (v, dist and
//     p at 8 bytes, pred at 4, scanned and dead at 1), the touched and ready
//     lists (at most 2m and m columns at 4 bytes: a column is touched once
//     per label that leaves +Inf) and the n-entry answer;
//   - the search heap at its bound, n·c + 3m entries of 12 bytes. Each row
//     is scanned at most once per search, so its prefix pushes are at most
//     n·c; a whole-row pass pushes at most m, and the heap is compacted to
//     its live entries, at most one per column, once it passes 2m.
//
// When rows > cols the decider solves the transposed problem, which
// materializes Sᵀ — a full extra matrix that dominates the rest and must be
// counted for the memory tables to reflect what tall inputs actually cost —
// plus the rows-long assignment it maps the answer back through.
func (HungarianDecider) ExtraBytes(rows, cols int) int64 {
	n, m := int64(rows), int64(cols)
	var transposed int64
	if rows > cols {
		n, m = m, n
		transposed = matBytes(rows, cols) + int64(rows)*8
	}
	c := min(int64(lapStartWidth), m)
	graph := n*c*12 + (n+1)*8 + n*(c*16+48)
	arrays := (n+1)*8 + (m+1)*30 + m*12 + n*8
	heap := (n*c + 3*m) * 12
	return transposed + graph + arrays + heap
}

// NewHungarian returns the Hun. algorithm: raw scores plus optimal
// assignment. Under the 1-to-1 evaluation setting this is the paper's
// strongest matcher; its time complexity O(n³) makes it the least scalable.
func NewHungarian() *Composite {
	return NewComposite(NoneTransform{}, HungarianDecider{}, "Hun.")
}
