package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"entmatcher/internal/matrix"
)

// TestCSLSKLargerThanColumns: k above the column count degenerates to the
// full-row mean without error.
func TestCSLSKLargerThanColumns(t *testing.T) {
	s := mat(t, []float64{0.5, 0.1}, []float64{0.2, 0.9})
	if _, err := NewCSLS(10).Match(&Context{S: s}); err != nil {
		t.Fatal(err)
	}
}

// TestCSLSMonotoneK mirrors the left edge of Figure 6 on a synthetic
// hub-heavy instance: k=1 must be at least as accurate as a large k.
func TestCSLSMonotoneK(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 60
	s := matrix.New(n, n)
	for i := 0; i < n; i++ {
		row := s.Row(i)
		for j := range row {
			row[j] = rng.Float64() * 0.4
		}
		row[i] = 0.45 + rng.Float64()*0.2
		row[0] += 0.3 // column 0 is a hub
	}
	hits := func(k int) int {
		res, err := NewCSLS(k).Match(&Context{S: s})
		if err != nil {
			t.Fatal(err)
		}
		return diagonalHits(res)
	}
	if hits(1) < hits(20) {
		t.Fatalf("k=1 hits %d below k=20 hits %d", hits(1), hits(20))
	}
}

// TestSinkhornDeterministic: same inputs, same outputs.
func TestSinkhornDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := randScores(rng, 25, 25)
	tr := SinkhornTransform{L: 50, Tau: 0.05}
	a, err := tr.Transform(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Transform(s)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(a, b) {
		t.Fatal("Sinkhorn transform not deterministic")
	}
}

// TestSinkhornZeroIterations leaves a (scaled) exponential of the input:
// greedy on it equals greedy on the raw scores.
func TestSinkhornZeroIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	s := randScores(rng, 15, 15)
	raw, err := NewDInf().Match(&Context{S: s})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewSinkhorn(0).Match(&Context{S: s})
	if err != nil {
		t.Fatal(err)
	}
	pr, ps := pairsBySource(raw), pairsBySource(sink)
	for k, v := range pr {
		if ps[k] != v {
			t.Fatal("l=0 Sinkhorn changed the greedy matching")
		}
	}
}

// TestHungarianHandlesNegativeScores: the LAP solver must not assume
// non-negative similarities (Euclidean metric scores are negative).
func TestHungarianHandlesNegativeScores(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		s := matrix.New(n, n)
		data := s.Data()
		for i := range data {
			data[i] = -rng.Float64() * 10
		}
		res, err := NewHungarian().Match(&Context{S: s})
		if err != nil {
			return false
		}
		return math.Abs(totalScore(s, res)-bruteForceBestAssignment(s)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestHungarianSingleCell: the 1×1 problem.
func TestHungarianSingleCell(t *testing.T) {
	s := mat(t, []float64{0.4})
	res, err := NewHungarian().Match(&Context{S: s})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 || res.Pairs[0] != (Pair{Source: 0, Target: 0, Score: 0.4}) {
		t.Fatalf("pairs = %+v", res.Pairs)
	}
}

// TestGaleShapleyAgreesWithHungarianOnCleanDiagonal: when the instance has
// an unambiguous mutual-best matching, the stable matching and the optimal
// assignment coincide.
func TestGaleShapleyAgreesWithHungarianOnCleanDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := diagonalish(rng, 40, 1.0, 0.2)
	hun, err := NewHungarian().Match(&Context{S: s})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := NewSMat().Match(&Context{S: s})
	if err != nil {
		t.Fatal(err)
	}
	ph, pg := pairsBySource(hun), pairsBySource(gs)
	for k, v := range ph {
		if pg[k] != v {
			t.Fatalf("row %d: Hungarian %d, Gale-Shapley %d", k, v, pg[k])
		}
	}
}

// TestRInfTiesBrokenDeterministically: a fully tied matrix must yield a
// stable, reproducible matching.
func TestRInfTiesBrokenDeterministically(t *testing.T) {
	s := matrix.New(6, 6)
	s.Fill(0.5)
	a, err := NewRInf().Match(&Context{S: s})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRInf().Match(&Context{S: s})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := pairsBySource(a), pairsBySource(b)
	for k, v := range pa {
		if pb[k] != v {
			t.Fatal("tied matching not deterministic")
		}
	}
}

// TestDummyScoreFromValidation quantile behaviour.
func TestDummyScoreFromValidation(t *testing.T) {
	v := mat(t,
		[]float64{0.1, 0.2},
		[]float64{0.3, 0.4},
		[]float64{0.5, 0.6},
		[]float64{0.7, 0.8},
	)
	// Row maxima: 0.2, 0.4, 0.6, 0.8.
	if got := DummyScoreFromValidation(v, 0); got != 0.2 {
		t.Fatalf("q=0: %v", got)
	}
	if got := DummyScoreFromValidation(v, 1); got != 0.8 {
		t.Fatalf("q=1: %v", got)
	}
	if got := DummyScoreFromValidation(v, 0.34); got != 0.4 {
		t.Fatalf("q=0.34: %v", got)
	}
	// Clamping and nil safety.
	if got := DummyScoreFromValidation(v, -5); got != 0.2 {
		t.Fatalf("q<0: %v", got)
	}
	if got := DummyScoreFromValidation(nil, 0.5); got != 0 {
		t.Fatalf("nil matrix: %v", got)
	}
	// A NaN quantile indexes nothing: int(NaN) would be min-int.
	if got := DummyScoreFromValidation(v, math.NaN()); !math.IsNaN(got) {
		t.Fatalf("q=NaN: %v, want NaN", got)
	}
}

// TestRInfPBSmallBlockDegradesGracefully: tiny blocks must still produce a
// valid (if less accurate) matching for every row.
func TestRInfPBSmallBlockDegradesGracefully(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s := diagonalish(rng, 50, 0.6, 0.4)
	res, err := NewRInfPB(2).Match(&Context{S: s})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs)+len(res.Abstained) != 50 {
		t.Fatalf("rows unaccounted: %d + %d", len(res.Pairs), len(res.Abstained))
	}
	full, err := NewRInf().Match(&Context{S: s})
	if err != nil {
		t.Fatal(err)
	}
	if diagonalHits(res) > diagonalHits(full) {
		t.Fatalf("tiny block beat the full algorithm: %d > %d", diagonalHits(res), diagonalHits(full))
	}
}

// TestCompositeTransformErrorPropagates: a failing stage must surface with
// the matcher name attached.
func TestCompositeTransformErrorPropagates(t *testing.T) {
	bad := NewComposite(CSLSTransform{K: 0}, GreedyDecider{}, "BadCSLS")
	_, err := bad.Match(&Context{S: matrix.New(2, 2)})
	if err == nil {
		t.Fatal("invalid transform config did not error")
	}
}

// TestWithDummiesDoesNotMutateOriginal.
func TestWithDummiesDoesNotMutateOriginal(t *testing.T) {
	s := matrix.New(4, 2)
	ctx := &Context{S: s}
	padded := PadDummies(ctx, s.Rows()-s.Cols(), -1)
	if ctx.S.Cols() != 2 || ctx.NumDummies != 0 {
		t.Fatal("original context mutated")
	}
	if padded.S.Cols() != 4 || padded.NumDummies != 2 {
		t.Fatalf("padded: cols=%d dummies=%d", padded.S.Cols(), padded.NumDummies)
	}
}
