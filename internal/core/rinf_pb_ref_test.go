package core_test

// RInf-pb's body as it stood before the progressive-blocking RInf became the
// candidate-graph body (RInfSparse): top-C blocks from Dense.RowTopK on the
// matrix and on a full transposed copy, one rank map per entity, kept
// verbatim as the reference the merged body must match bit for bit. Its
// block ranking is a comparator sort on (preference desc, entity id asc), so
// the reference does not share the production ranking primitive.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"entmatcher/internal/conformance"
	"entmatcher/internal/core"
)

// refRInfPB is RInfPB before the merge.
type refRInfPB struct {
	// C is the per-entity candidate block size.
	C int
}

func (refRInfPB) Name() string { return "RInf-pb" }

func (m *refRInfPB) Match(ctx *core.Context) (*core.Result, error) {
	if ctx == nil || ctx.S == nil {
		return nil, core.ErrNoMatrix
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
		order := refArgsortDescByKey(prefs, tk.Indices)
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
		order := refArgsortDescByKey(prefs, tk.Indices)
		mrank := make(map[int]int, len(order))
		for r, x := range order {
			mrank[tk.Indices[x]] = r + 1
		}
		rankTS[j] = mrank
	}

	// Combine: average rank with the worst-rank penalty for absences.
	penalty := float64(m.C + 1)
	realCols := cols - ctx.NumDummies
	pairs := make([]core.Pair, 0, rows)
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
		pairs = append(pairs, core.Pair{Source: i, Target: bestJ, Score: -best})
	}
	return &core.Result{
		Matcher:    m.Name(),
		Pairs:      pairs,
		Abstained:  abstained,
		Elapsed:    time.Since(start),
		ExtraBytes: int64(rows)*int64(cols)*8 + int64(rows+cols)*int64(m.C)*24,
	}, nil
}

// refArgsortDescByKey returns the position permutation sorting v in
// descending order, ties broken by the ascending key (the entity index).
func refArgsortDescByKey(v []float64, key []int) []int32 {
	order := make([]int32, len(v))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := v[order[a]], v[order[b]]
		if va != vb {
			return va > vb
		}
		return key[order[a]] < key[order[b]]
	})
	return order
}

// TestRInfPBMatchesReference holds NewRInfPB to the map-based reference on
// the conformance inputs (ties, dummy columns) and the larger wide, square
// and tall shapes, at block sizes from 1 to past full width — blocks on both
// sides of the ranking primitive's insertion/radix switch — on a dense
// context and on streamed tiles of two shapes: the same pairs, scores and
// abstentions, under the same label. A score is minus an average of two
// ranks, never zero or NaN, so ResultsIdentical's == is bit equality.
//
// Each comparison runs at GOMAXPROCS 1, 2, 3 and 8: the rank joins and the
// combine run on the worker pool in tiles of a few rows.
func TestRInfPBMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range referenceCases() {
		rows, cols := tc.S.Rows(), tc.S.Cols()
		for _, c := range []int{1, 2, 5, 50, max(rows, cols), rows + cols} {
			t.Run(fmt.Sprintf("%s/C=%d", tc.Name, c), func(t *testing.T) {
				dense := &core.Context{S: tc.S, NumDummies: tc.NumDummies}
				want, err := (&refRInfPB{C: c}).Match(dense)
				if err != nil {
					t.Fatal(err)
				}
				for _, procs := range []int{1, 2, 3, 8} {
					runtime.GOMAXPROCS(procs)
					for _, ctx := range []*core.Context{
						dense,
						conformance.StreamContext(dense, 5, 4),
						conformance.StreamContext(dense, 0, 0),
					} {
						got, err := core.NewRInfPB(c).Match(ctx)
						if err != nil {
							t.Fatal(err)
						}
						if got.Matcher != want.Matcher || !conformance.ResultsIdentical(got, want) {
							t.Fatalf("GOMAXPROCS=%d stream=%v: %s diverged from the reference: %s",
								procs, ctx.Stream != nil, got.Matcher, conformance.DescribeDiff(got, want))
						}
					}
				}
			})
		}
	}
}
