package core

import (
	"context"
	"fmt"

	"entmatcher/internal/matrix"
)

// HungarianDecider solves the linear assignment problem on the score matrix
// (the paper's § 3.5, Hun.): it finds the 1-to-1 assignment of rows to
// columns maximizing the total score, via the shortest-augmenting-path
// algorithm with dual potentials (Jonker & Volgenant 1987 [21], the
// implementation the paper uses). Time O(n²·m), space O(n·m).
//
// The matrix may be rectangular with rows ≤ cols; when rows > cols the
// decider solves the transposed problem. Rows assigned to dummy columns
// (ctx.NumDummies trailing columns) are reported as abstained.
//
// The augmenting-path search checks ctx.Ctx cooperatively once per
// augmentation step (each step scans one row of the matrix), so a deadline
// or cancel aborts a long run within O(cols) work — this matters because a
// single Hungarian run dominates the whole pipeline at DWY100K scale
// (the paper's Figure 5).
type HungarianDecider struct{}

// Name returns "hungarian".
func (HungarianDecider) Name() string { return "hungarian" }

// Decide computes the optimal assignment.
func (HungarianDecider) Decide(ctx *Context, s *matrix.Dense) ([]Pair, []int, error) {
	rows, cols := s.Rows(), s.Cols()
	if rows == 0 || cols == 0 {
		return nil, nil, fmt.Errorf("hungarian: empty matrix %d×%d", rows, cols)
	}
	cc := ctx.Cancellation()
	var rowOf []int // column -> assigned row, or -1
	if rows <= cols {
		var err error
		rowOf, err = solveLAP(cc, s)
		if err != nil {
			return nil, nil, err
		}
	} else {
		// More rows than columns: solve on the transpose (whose rows are
		// the original columns), leaving some original rows unmatched.
		// solveLAP on the transpose yields, per transpose-column (original
		// row), the assigned transpose-row (original column).
		rowAssign, err := solveLAP(cc, s.Transpose())
		if err != nil {
			return nil, nil, err
		}
		rowOf = make([]int, cols)
		for j := range rowOf {
			rowOf[j] = -1
		}
		for origRow, origCol := range rowAssign {
			if origCol >= 0 {
				rowOf[origCol] = origRow
			}
		}
	}
	assigned := make([]int, rows) // row -> column or -1
	for i := range assigned {
		assigned[i] = -1
	}
	for j, i := range rowOf {
		if i >= 0 {
			assigned[i] = j
		}
	}
	realCols := cols - ctx.NumDummies
	pairs := make([]Pair, 0, rows)
	var abstained []int
	for i, j := range assigned {
		if j < 0 || j >= realCols {
			abstained = append(abstained, i)
			continue
		}
		pairs = append(pairs, Pair{Source: i, Target: j, Score: s.At(i, j)})
	}
	return pairs, abstained, nil
}

// ExtraBytes covers the duals, assignment arrays and the per-augmentation
// scratch, per the package accounting rule: one Θ(rows) dual plus five
// Θ(cols) arrays (v, p, way, minv at 8 bytes, used at 1), the column-to-row
// assignment and the row-to-column table. When rows > cols the decider
// solves the transposed problem, which materializes Sᵀ — a full extra matrix
// that dominates the vectors and must be counted for the memory tables to
// reflect what tall inputs actually cost.
func (HungarianDecider) ExtraBytes(rows, cols int) int64 {
	n, m := rows, cols // solveLAP shape: n ≤ m
	var transposed int64
	if rows > cols {
		n, m = cols, rows
		transposed = matBytes(rows, cols)
	}
	return transposed + int64(n)*16 + int64(m)*41
}

// solveLAP returns, for each column, the row assigned to it (-1 if none),
// maximizing the total score of a complete assignment of all rows.
// Requires rows ≤ cols. It returns ctx.Err() as soon as the context is done;
// cancellation is checked once per search step, whose cost is one O(cols)
// scan, so the abort latency is bounded by a single matrix row.
//
// The formulation is Jonker & Volgenant's shortest augmenting path with
// absolute distance labels: per free row, a Dijkstra search over reduced
// costs (cost = -score) finds the cheapest alternating path to a free
// column, then the duals of the scanned columns are updated once from their
// final distances (u[p[j]] += df − dist[j], v[j] −= df − dist[j]).
// Mathematically this is the classic per-round delta formulation with the
// deltas telescoped; computationally it does the dual updates in O(path)
// instead of O(rounds²), and — crucially — it is the exact arithmetic the
// sparse candidate-graph solver (solveSparseLAP) performs, which is what
// makes the sparse matcher bit-identical to this one at full candidate
// width. Ties in the pivot choice break toward the smallest column index;
// ties in the relaxation keep the earliest predecessor (strict <), matching
// the selection contract used across the package.
//
// A step is one pass over the columns (matrix.LAPScan): the relaxation
// through the last pivot and the choice of the next pivot are fused, on the
// AVX2 kernel where the machine has one.
func solveLAP(ctx context.Context, s *matrix.Dense) ([]int, error) {
	n, m := s.Rows(), s.Cols()
	// Minimization duals over cost = -score. 1-based arrays with a virtual
	// row 0 / column 0; the column scan runs over columns 1..m, so its
	// column c is column c+1 here.
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1) // p[j]: row (1-based) assigned to column j; 0 = free
	pred := make([]int, m+1)
	dist := make([]float64, m+1)
	scanned := make([]bool, m+1)
	ready := make([]int, 0, m) // scanned columns in pop order
	scan := matrix.LAPScan{V: v[1:], Dist: dist[1:], Pred: pred[1:], Scanned: scanned[1:]}

	for i := 1; i <= n; i++ {
		p[0] = i
		ready = ready[:0]
		j1 := scan.Init(s.Row(i-1), u[i]) + 1
		jf := -1 // free column ending the shortest augmenting path
		var df float64
		for {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			if j1 == 0 {
				break // unreachable with finite scores; leaves row i unassigned
			}
			if p[j1] == 0 {
				jf, df = j1, dist[j1]
				break
			}
			scanned[j1] = true
			ready = append(ready, j1)
			i2 := p[j1]
			j1 = scan.Relax(s.Row(i2-1), u[i2], dist[j1], j1) + 1
		}
		if jf < 0 {
			continue
		}
		u[i] += df
		for _, j := range ready {
			u[p[j]] += df - dist[j]
			v[j] -= df - dist[j]
		}
		for j := jf; j != 0; {
			pj := pred[j]
			p[j] = p[pj]
			j = pj
		}
	}
	out := make([]int, m)
	for j := 1; j <= m; j++ {
		out[j-1] = p[j] - 1 // back to 0-based; -1 = unassigned
	}
	return out, nil
}

// NewHungarian returns the Hun. algorithm: raw scores plus optimal
// assignment. Under the 1-to-1 evaluation setting this is the paper's
// strongest matcher; its time complexity O(n³) makes it the least scalable.
func NewHungarian() *Composite {
	return NewComposite(NoneTransform{}, HungarianDecider{}, "Hun.")
}
