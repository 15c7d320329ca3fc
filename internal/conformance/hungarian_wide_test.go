package conformance

import (
	"math"
	"math/rand"
	"testing"

	"entmatcher/internal/core"
	"entmatcher/internal/matrix"
)

// wideHungarianCases are wider than the dense decider's 32-score start
// prefix, so its row scans reach the whole-row pass: rows that share their
// best columns (duplicates, a shared order) run out of free prefix columns,
// and tie-dense rows hold a prefix whose last score ties the search's bound.
// Cases with at most 16 rows on their smaller side are in reach of
// OracleAssignmentValue; the others need at least 33 rows for a search to
// pass every column of a prefix. The tie-dense rows drawn from a few shared
// ones reach equal-label augmenting paths past the prefix, where the scans'
// early exit must still run the equal case for the column tie-break.
func wideHungarianCases(seed int64) []Case {
	rng := rand.New(rand.NewSource(seed))
	shared := func(rows, cols int) *matrix.Dense {
		s := WellSeparated(rng, rows, cols)
		for i := 1; i < rows; i++ {
			copy(s.Row(i), s.Row(0))
		}
		return s
	}
	// fromRows copies each row from one of k tie-dense rows, then redraws
	// `redraw` of its entries on the same grid.
	fromRows := func(rows, cols, levels, k, redraw int) *matrix.Dense {
		base := TieHeavy(rng, k, cols, levels)
		s := TieHeavy(rng, rows, cols, levels)
		for i := 0; i < rows; i++ {
			row := s.Row(i)
			copy(row, base.Row(rng.Intn(k)))
			for x := 0; x < redraw; x++ {
				row[rng.Intn(cols)] = float64(rng.Intn(levels)) / float64(levels)
			}
		}
		return s
	}
	constant := matrix.New(36, 40)
	constant.Fill(0.25)
	return []Case{
		{Name: "tie-dense-12x48", S: TieHeavy(rng, 12, 48, 4)},
		{Name: "duplicate-rows-16x40", S: DuplicateRows(rng, 16, 40)},
		{Name: "tie-dense-2-levels-10x44", S: TieHeavy(rng, 10, 44, 2)},
		{Name: "shared-order-40x48", S: shared(40, 48)},
		{Name: "shared-order-tall-48x40", S: shared(48, 40)},
		{Name: "duplicate-rows-40x48", S: DuplicateRows(rng, 40, 48)},
		{Name: "tie-dense-40x48", S: TieHeavy(rng, 40, 48, 4)},
		{Name: "tie-dense-2-levels-44x44", S: TieHeavy(rng, 44, 44, 2)},
		{Name: "constant-36x40", S: constant},
		WithDummyCols("tie-dummies-36x24+20", TieHeavy(rng, 36, 24, 4), 20, 0.5),
		{Name: "one-row-redrawn-60x64", S: fromRows(60, 64, 8, 1, 3)},
		{Name: "one-row-redrawn-48x48", S: fromRows(48, 48, 8, 1, 3)},
		{Name: "four-rows-60x64", S: fromRows(60, 64, 4, 4, 0)},
		{Name: "four-rows-redrawn-60x64", S: fromRows(60, 64, 8, 4, 3)},
	}
}

// TestHungarianWholeRowPass holds dense Hun. on matrices wider than its
// start prefix to Hun.-sparse at full width — the uncut search, pairs,
// scores and abstentions bit for bit — and, where the exhaustive oracle
// reaches, to the optimal assignment value.
func TestHungarianWholeRowPass(t *testing.T) {
	// The wide oracle first agrees with the column-mask one on the suite.
	for _, tc := range AdversarialCases(suiteSeed) {
		s := tc.S
		if s.Rows() > s.Cols() {
			s = s.Transpose()
		}
		want, err := OracleAssignmentValue(s)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := oracleWideAssignment(s); err != nil || math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: wide oracle %v (%v), column-mask oracle %v", tc.Name, got, err, want)
		}
	}
	for _, tc := range wideHungarianCases(suiteSeed) {
		t.Run(tc.Name, func(t *testing.T) {
			rows, cols := tc.S.Rows(), tc.S.Cols()
			if cols < 40 && rows < 40 {
				t.Fatalf("%dx%d is not wider than the start prefix", rows, cols)
			}
			ctx := &core.Context{S: tc.S, NumDummies: tc.NumDummies}
			dense, err := core.NewHungarian().Match(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckStructure(dense, rows, cols, tc.NumDummies); err != nil {
				t.Fatal(err)
			}
			if err := OneToOne(dense.Pairs); err != nil {
				t.Fatal(err)
			}
			sparse, err := core.NewHungarianSparse(rows + cols).Match(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !ResultsIdentical(dense, sparse) {
				t.Fatalf("dense Hun. differs from Hun.-sparse at full width: %s", DescribeDiff(dense, sparse))
			}
			if min(rows, cols) > 16 || tc.NumDummies > 0 {
				return
			}
			want, err := OracleAssignmentValue(tc.S)
			if err != nil {
				t.Fatal(err)
			}
			if got := PairValue(tc.S, dense.Pairs); math.Abs(got-want) > 1e-9 {
				t.Fatalf("assignment value %v, exhaustive optimum %v", got, want)
			}
		})
	}
}
