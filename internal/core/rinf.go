package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"entmatcher/internal/matrix"
)

// ReciprocalTransform implements the RInf reciprocal preference model
// (Zeng et al., VLDB J 2021; the paper's § 3.4 and Algorithm 5). The
// preference of source u for target v is
//
//	p(u, v) = S(u, v) − max_{u'} S(u', v) + 1,
//
// i.e. u's score discounted by v's best alternative; symmetrically for the
// target side. Both preference matrices are (optionally) converted to
// per-row rank matrices, and the reciprocal matrix is their average. The
// transform returns −(R_st + R_tsᵀ)/2 so that greedy maximization picks the
// best (smallest) average rank.
type ReciprocalTransform struct {
	// WithRanking enables the rank conversion. Disabling it yields the
	// RInf-wr variant: cheaper, but score differences are not amplified
	// before the bidirectional aggregation, which the paper shows to be
	// equivalent in effect to CSLS with k=1.
	WithRanking bool
}

// Name returns "reciprocal" or "reciprocal-wr".
func (t ReciprocalTransform) Name() string {
	if t.WithRanking {
		return "reciprocal"
	}
	return "reciprocal-wr"
}

// Transform computes the reciprocal preference matrix; s is not modified.
func (t ReciprocalTransform) Transform(s *matrix.Dense) (*matrix.Dense, error) {
	return t.TransformContext(context.Background(), s)
}

// TransformContext is Transform with cooperative cancellation, checked
// between the major matrix passes (preference construction, rank transforms
// and bidirectional aggregation — each a full O(rows×cols) sweep).
func (t ReciprocalTransform) TransformContext(ctx context.Context, s *matrix.Dense) (*matrix.Dense, error) {
	rows, cols := s.Rows(), s.Cols()
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("reciprocal: empty matrix %d×%d", rows, cols)
	}
	rowMaxes, _ := s.RowMax() // max over targets for each source
	colMaxes, _ := s.ColMax() // max over sources for each target
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	if !t.WithRanking {
		// RInf-wr averages the raw preferences. Expanding the definition,
		// (p_st + p_ts)/2 = S(u, v) − (rowMax(u) + colMax(v))/2 + 1, which
		// one pass computes without materializing either preference matrix
		// — the variant's whole point is this cost reduction.
		out := s.Clone()
		halfCol := make([]float64, cols)
		for j, v := range colMaxes {
			halfCol[j] = v / 2
		}
		halfRow := make([]float64, rows)
		for i, v := range rowMaxes {
			halfRow[i] = v/2 - 1 // fold the +1 into the row pass
		}
		if err := out.SubRowVector(halfCol); err != nil {
			return nil, err
		}
		if err := out.SubColVector(halfRow); err != nil {
			return nil, err
		}
		return out, nil
	}

	// P_st(u, v) = S(u, v) − colMax(v) + 1.
	pst := matrix.New(rows, cols)
	if err := preferenceInto(ctx, pst, s, colMaxes); err != nil {
		return nil, err
	}

	// P_ts(v, u) = S(u, v) − rowMax(u) + 1, stored transposed (cols×rows).
	pts := s.Transpose()
	if err := preferenceInto(ctx, pts, pts, rowMaxes); err != nil {
		return nil, err
	}

	pst.RowRanksInPlace()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	pts.RowRanksInPlace()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	// Reciprocal rank matrix: −(R_st + R_tsᵀ)/2.
	ptsT := pts.Transpose()
	if err := matrix.ParallelRowsCtx(ctx, rows, func(i int) {
		dst := pst.Row(i)
		add := ptsT.Row(i)
		for j := range dst {
			dst[j] = -(dst[j] + add[j]) / 2
		}
	}); err != nil {
		return nil, err
	}
	return pst, nil
}

// preferenceInto writes dst(i, j) = (src(i, j) − best[j]) + 1 in one sweep;
// dst may be src. The subtraction and the addition are two rounded
// operations on purpose: folding them into src − (best − 1) changes low bits,
// and the structural ties of the rank transform — every cell attaining its
// column maximum has preference exactly 1 — depend on them.
func preferenceInto(ctx context.Context, dst, src *matrix.Dense, best []float64) error {
	return matrix.ParallelRowsCtx(ctx, dst.Rows(), func(i int) {
		d, s := dst.Row(i), src.Row(i)
		for j, b := range best[:len(d)] {
			d[j] = (s[j] - b) + 1
		}
	})
}

// ExtraBytes counts the preference matrices in both directions plus the
// transpose scratch — the memory overhead the paper attributes to RInf's
// "computation of similarity, preference, and ranking matrices" — and the
// row/column max value+index vectors live throughout, per the package
// accounting rule.
func (t ReciprocalTransform) ExtraBytes(rows, cols int) int64 {
	if t.WithRanking {
		// Peak: pst, pts and ptsT live together during the final merge.
		return 3*matBytes(rows, cols) + int64(rows+cols)*16
	}
	// The no-ranking variant needs only the single combined matrix plus the
	// max vectors and the two halved-vector scratches.
	return matBytes(rows, cols) + int64(rows+cols)*24
}

// NewRInf returns the full RInf algorithm: reciprocal preferences with rank
// conversion, then greedy matching. Time O(n² lg n), space O(n²) with a
// higher constant than CSLS.
func NewRInf() *Composite {
	return NewComposite(ReciprocalTransform{WithRanking: true}, GreedyDecider{}, "RInf")
}

// NewRInfWR returns the RInf-wr variant (without the ranking process),
// trading a small accuracy drop for far less time and memory.
func NewRInfWR() *Composite {
	return NewComposite(ReciprocalTransform{WithRanking: false}, GreedyDecider{}, "RInf-wr")
}

// RInfPB is the progressive-blocking variant of RInf (the paper's Table 6):
// reciprocal ranking is computed only within each entity's top-C candidate
// block, bounding memory at O(n·C) instead of O(n²). Candidates outside the
// block receive the worst rank, so the result approaches full RInf as C
// grows.
type RInfPB struct {
	// C is the per-entity candidate block size.
	C int
}

// Name returns the paper's label for the variant.
func (RInfPB) Name() string { return "RInf-pb" }

// Match runs the blocked reciprocal matching.
func (m *RInfPB) Match(ctx *Context) (*Result, error) {
	if ctx == nil || ctx.S == nil {
		return nil, ErrNoMatrix
	}
	if m.C < 1 {
		return nil, fmt.Errorf("RInf-pb: block size must be positive, got %d", m.C)
	}
	start := time.Now()
	cc := ctx.Cancellation()
	s := ctx.S
	rows, cols := s.Rows(), s.Cols()
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("RInf-pb: empty matrix %d×%d", rows, cols)
	}
	c := m.C
	if c > cols {
		c = cols
	}
	cRev := m.C
	if cRev > rows {
		cRev = rows
	}

	rowMaxes, _ := s.RowMax()
	colMaxes, _ := s.ColMax()

	// Forward blocks: for each row, the top-c columns ranked by the
	// source-side preference p_st.
	fwd := s.RowTopK(c)
	if err := ctxErr(cc); err != nil {
		return nil, err
	}
	// rankST[i] maps candidate column -> rank (1-based) for row i.
	rankST := make([]map[int]int, rows)
	for i := 0; i < rows; i++ {
		if i%checkRowStride == 0 {
			if err := ctxErr(cc); err != nil {
				return nil, err
			}
		}
		tk := fwd[i]
		prefs := make([]float64, len(tk.Indices))
		for x, j := range tk.Indices {
			prefs[x] = tk.Values[x] - colMaxes[j] + 1
		}
		order := argsortDescByKey(prefs, tk.Indices)
		mrank := make(map[int]int, len(order))
		for r, x := range order {
			mrank[tk.Indices[x]] = r + 1
		}
		rankST[i] = mrank
	}

	// Reverse blocks: for each column, the top-cRev rows ranked by the
	// target-side preference p_ts.
	sT := s.Transpose()
	rev := sT.RowTopK(cRev)
	if err := ctxErr(cc); err != nil {
		return nil, err
	}
	rankTS := make([]map[int]int, cols)
	for j := 0; j < cols; j++ {
		if j%checkRowStride == 0 {
			if err := ctxErr(cc); err != nil {
				return nil, err
			}
		}
		tk := rev[j]
		prefs := make([]float64, len(tk.Indices))
		for x, i := range tk.Indices {
			prefs[x] = tk.Values[x] - rowMaxes[i] + 1
		}
		order := argsortDescByKey(prefs, tk.Indices)
		mrank := make(map[int]int, len(order))
		for r, x := range order {
			mrank[tk.Indices[x]] = r + 1
		}
		rankTS[j] = mrank
	}

	// Combine: average rank with the worst-rank penalty for absences.
	penalty := float64(m.C + 1)
	realCols := cols - ctx.NumDummies
	pairs := make([]Pair, 0, rows)
	var abstained []int
	for i := 0; i < rows; i++ {
		if i%checkRowStride == 0 {
			if err := ctxErr(cc); err != nil {
				return nil, err
			}
		}
		best := math.Inf(1)
		bestJ := -1
		// Iterate candidates in deterministic (top-k) order, not map order.
		for _, j := range fwd[i].Indices {
			rst := rankST[i][j]
			rts, ok := rankTS[j][i]
			r2 := penalty
			if ok {
				r2 = float64(rts)
			}
			avg := (float64(rst) + r2) / 2
			// Tie-break on the smaller column index, matching the greedy
			// first-occurrence rule of the full RInf.
			if avg < best || (avg == best && bestJ >= 0 && j < bestJ) {
				best = avg
				bestJ = j
			}
		}
		if bestJ < 0 {
			abstained = append(abstained, i)
			continue
		}
		if bestJ >= realCols {
			abstained = append(abstained, i)
			continue
		}
		pairs = append(pairs, Pair{Source: i, Target: bestJ, Score: -best})
	}
	return &Result{
		Matcher:    m.Name(),
		Pairs:      pairs,
		Abstained:  abstained,
		Elapsed:    time.Since(start),
		ExtraBytes: matBytes(rows, cols) + int64(rows+cols)*int64(m.C)*24,
	}, nil
}

// NewRInfPB returns the progressive-blocking RInf variant with block size c.
func NewRInfPB(c int) *RInfPB { return &RInfPB{C: c} }

// argsortDescByKey returns the position permutation sorting v in descending
// order; ties are broken by the ascending secondary key (the entity index),
// matching the tie-break of the dense rank transform so that RInf-pb with a
// full-width block reproduces RInf exactly. Preference ties are structural
// here: every cell that attains its column maximum has preference exactly 1.
func argsortDescByKey(v []float64, key []int) []int32 {
	order := make([]int32, len(v))
	matrix.OrderDescByKey(order, v, key)
	return order
}
