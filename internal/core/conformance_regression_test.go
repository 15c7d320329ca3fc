package core

// Regression tests for the divergences flushed out by the cross-engine
// conformance harness (internal/conformance). Each test is named for the bug
// it pins; see DESIGN.md § 9 "Conformance & oracles".

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"entmatcher/internal/matrix"
)

// TestDegenerateRowAbstention pins the abstention semantics for rows with no
// selectable maximum (every score NaN or −Inf): before the fix, RowMax's -1
// sentinel slipped through GreedyDecider's dummy check (−1 ≥ realCols is
// false) and a Pair with Target −1 was emitted. Dense and streaming paths
// must both abstain, identically.
func TestDegenerateRowAbstention(t *testing.T) {
	nan, ninf := math.NaN(), math.Inf(-1)
	s := mat(t,
		[]float64{0.5, 0.2, 0.1},
		[]float64{ninf, ninf, ninf},
		[]float64{nan, nan, nan},
		[]float64{nan, 0.3, ninf},
	)
	pairs, abstained, err := GreedyDecider{}.Decide(&Context{S: s}, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.Target < 0 {
			t.Fatalf("dense greedy emitted negative target: %+v", p)
		}
	}
	if want := []int{1, 2}; !reflect.DeepEqual(abstained, want) {
		t.Fatalf("dense abstained = %v, want %v", abstained, want)
	}
	if len(pairs) != 2 || pairs[0] != (Pair{Source: 0, Target: 0, Score: 0.5}) || pairs[1] != (Pair{Source: 3, Target: 1, Score: 0.3}) {
		t.Fatalf("dense pairs = %+v", pairs)
	}

	// The streaming engine must agree row for row, including with tile
	// shapes that split the degenerate rows across many tiles.
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {4, 3}} {
		st := &matrix.DenseTileSource{M: s, TileRows: shape[0], TileCols: shape[1]}
		res, err := NewDInfStream().Match(&Context{Stream: st})
		if err != nil {
			t.Fatalf("tiles %v: %v", shape, err)
		}
		if !reflect.DeepEqual(res.Pairs, pairs) || !reflect.DeepEqual(res.Abstained, abstained) {
			t.Fatalf("tiles %v: streaming pairs=%+v abstained=%v, dense pairs=%+v abstained=%v",
				shape, res.Pairs, res.Abstained, pairs, abstained)
		}
	}
}

// TestDegenerateRowAbstentionWithDummies: a degenerate row must be reported
// as abstained exactly once, not confused with a dummy assignment, and real
// rows must keep matching normally.
func TestDegenerateRowAbstentionWithDummies(t *testing.T) {
	ninf := math.Inf(-1)
	s := mat(t,
		[]float64{0.9, 0.1, 0.0},
		[]float64{ninf, ninf, ninf},
		[]float64{0.1, 0.2, 0.7}, // dummy column wins: ordinary abstention
	)
	ctx := &Context{S: s, NumDummies: 1}
	pairs, abstained, err := GreedyDecider{}.Decide(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2}; !reflect.DeepEqual(abstained, want) {
		t.Fatalf("abstained = %v, want %v", abstained, want)
	}
	if len(pairs) != 1 || pairs[0].Source != 0 || pairs[0].Target != 0 {
		t.Fatalf("pairs = %+v", pairs)
	}
}

// countdownCtx is a context whose Err turns into context.Canceled after a
// fixed number of checks — a deterministic probe for how often a loop
// actually polls its cancellation checkpoint.
type countdownCtx struct {
	context.Context
	remaining int32
}

func (c *countdownCtx) Err() error {
	if atomic.AddInt32(&c.remaining, -1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestGaleShapleyCancelDuringCascade pins the cancellation granularity of
// the deferred-acceptance loop. On a matrix where every row has identical
// preferences, popping row k triggers a displacement cascade of O(rows−k)
// proposals without returning to the outer freed-row loop, so counting pops
// (the old behavior) checks the context O(rows/stride) times while counting
// proposals (the fix) checks O(rows²/stride) times. The countdown budget
// below is sized so the old code ran to completion and the fixed code must
// observe the cancellation mid-cascade.
func TestGaleShapleyCancelDuringCascade(t *testing.T) {
	const n = 256
	s := matrix.New(n, n)
	for i := 0; i < n; i++ {
		row := s.Row(i)
		for j := range row {
			row[j] = float64(n - j) // same descending preference for every row
		}
	}
	// Preference construction consumes 2·(n/64) = 8 checks; the per-pop
	// accounting consumed only n/64 = 4 more, finishing well under the
	// budget. Per-proposal accounting needs ~n²/2/64 ≈ 512 and must fail.
	cc := &countdownCtx{Context: context.Background(), remaining: 20}
	_, _, err := GaleShapleyDecider{}.Decide(&Context{S: s, Ctx: cc}, s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled mid-cascade, got %v", err)
	}
}

// TestExtraBytesAccounting pins the package accounting rule (peak
// simultaneously-live input-scaled allocations, payload bytes) for every
// transform and decider, so the paper's memory tables stay comparable across
// methods. In particular CSLS must count its two φ vectors — (rows+cols)·8 —
// which the pre-harness estimate omitted while Sinkhorn counted its column
// scratch.
func TestExtraBytesAccounting(t *testing.T) {
	mb := func(r, c int) int64 { return int64(r) * int64(c) * 8 }
	cases := []struct {
		name    string
		got     func(r, c int) int64
		formula func(r, c int) int64
	}{
		{"none", NoneTransform{}.ExtraBytes, func(r, c int) int64 { return 0 }},
		{"csls", CSLSTransform{K: 1}.ExtraBytes, func(r, c int) int64 {
			return mb(r, c) + int64(r+c)*8
		}},
		{"reciprocal", ReciprocalTransform{WithRanking: true}.ExtraBytes, func(r, c int) int64 {
			return 3*mb(r, c) + int64(r+c)*16
		}},
		{"reciprocal-wr", ReciprocalTransform{WithRanking: false}.ExtraBytes, func(r, c int) int64 {
			return mb(r, c) + int64(r+c)*24
		}},
		{"sinkhorn", SinkhornTransform{L: 100, Tau: 0.05}.ExtraBytes, func(r, c int) int64 {
			return mb(r, c) + int64(c)*16
		}},
		{"greedy", GreedyDecider{}.ExtraBytes, func(r, c int) int64 { return int64(r) * 16 }},
		{"gale-shapley", GaleShapleyDecider{}.ExtraBytes, func(r, c int) int64 {
			return 2*int64(r)*int64(c)*4 + int64(r)*32 + int64(c)*8
		}},
		{"hungarian", HungarianDecider{}.ExtraBytes, func(r, c int) int64 {
			// The top-C₀ graph and the selections it is copied from, the
			// search's arrays and its heap bound over the solved orientation
			// (n ≤ m); tall inputs add Sᵀ and the rows-long assignment.
			bound := func(n, m int64) int64 {
				w := min(int64(lapStartWidth), m)
				return n*w*12 + (n+1)*8 + n*(w*16+48) + (n+1)*8 + (m+1)*30 + m*12 + n*8 + (n*w+3*m)*12
			}
			if r <= c {
				return bound(int64(r), int64(c))
			}
			return mb(r, c) + int64(r)*8 + bound(int64(c), int64(r))
		}},
	}
	shapes := [][2]int{{5, 7}, {7, 5}, {40, 40}, {1, 1}}
	for _, tc := range cases {
		for _, sh := range shapes {
			r, c := sh[0], sh[1]
			if got, want := tc.got(r, c), tc.formula(r, c); got != want {
				t.Errorf("%s.ExtraBytes(%d, %d) = %d, want %d", tc.name, r, c, got, want)
			}
		}
	}
	// The rule must preserve the paper's medium-scale memory ordering
	// (also asserted end-to-end by TestResultExtraBytesOrdering).
	r, c := 40, 40
	csls := CSLSTransform{K: 1}.ExtraBytes(r, c)
	smat := GaleShapleyDecider{}.ExtraBytes(r, c)
	if smat <= csls {
		t.Fatalf("SMat decider %d not above CSLS transform %d under the unified rule", smat, csls)
	}
}

// tieHeavyScores draws every score from a small discrete set so ties are
// dense — the regime where tie-breaking contracts actually bite.
func tieHeavyScores(rng *rand.Rand, rows, cols, levels int) *matrix.Dense {
	m := matrix.New(rows, cols)
	data := m.Data()
	for i := range data {
		data[i] = float64(rng.Intn(levels)) / float64(levels)
	}
	return m
}

// TestRInfPBMatchesRInfAtFullWidth pins the contract of the block rankings'
// tie-break (matrix.OrderDescByKey): with a block size covering every
// candidate (C ≥ max(rows, cols)), the progressive-blocking variant must
// reproduce full RInf element for element — same pairs, same scores
// (bit-exact: both compute −(rank_st+rank_ts)/2 with exact integer-valued
// arithmetic), same abstentions — even on tie-heavy matrices where the
// shared tie-break (ascending entity index) decides almost every rank.
func TestRInfPBMatchesRInfAtFullWidth(t *testing.T) {
	shapes := [][2]int{{30, 30}, {20, 35}, {35, 20}}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		for _, sh := range shapes {
			rows, cols := sh[0], sh[1]
			s := tieHeavyScores(rng, rows, cols, 5)
			c := rows
			if cols > rows {
				c = cols
			}
			ctx := &Context{S: s}
			full, err := NewRInf().Match(ctx)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := NewRInfPB(c).Match(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(full.Pairs, pb.Pairs) {
				t.Fatalf("seed %d shape %v: RInf-pb(C=%d) diverged from RInf:\nfull: %+v\npb:   %+v",
					seed, sh, c, full.Pairs, pb.Pairs)
			}
			if !reflect.DeepEqual(full.Abstained, pb.Abstained) {
				t.Fatalf("seed %d shape %v: abstained diverged: %v vs %v", seed, sh, full.Abstained, pb.Abstained)
			}
		}
	}
}

// TestRInfPBMatchesRInfWithDummies extends the full-width pin to the
// unmatchable setting: dummy-column abstention must agree too.
func TestRInfPBMatchesRInfWithDummies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := tieHeavyScores(rng, 24, 20, 4)
	s := AddDummyColumns(base, 4, 0.5)
	ctx := &Context{S: s, NumDummies: 4}
	full, err := NewRInf().Match(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewRInfPB(s.Cols()).Match(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Pairs, pb.Pairs) || !reflect.DeepEqual(full.Abstained, pb.Abstained) {
		t.Fatalf("dummy run diverged:\nfull: %+v / %v\npb:   %+v / %v",
			full.Pairs, full.Abstained, pb.Pairs, pb.Abstained)
	}
}
