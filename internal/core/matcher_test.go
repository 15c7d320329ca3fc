package core

import (
	"math/rand"
	"testing"

	"entmatcher/internal/matrix"
)

// mat builds a matrix from rows for test brevity.
func mat(t *testing.T, rows ...[]float64) *matrix.Dense {
	t.Helper()
	if len(rows) == 0 {
		return matrix.New(0, 0)
	}
	m := matrix.New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func randScores(rng *rand.Rand, rows, cols int) *matrix.Dense {
	m := matrix.New(rows, cols)
	data := m.Data()
	for i := range data {
		data[i] = rng.Float64()
	}
	return m
}

// diagonalish returns a matrix whose diagonal dominates, with noise.
func diagonalish(rng *rand.Rand, n int, diag, noise float64) *matrix.Dense {
	m := matrix.New(n, n)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = rng.Float64() * noise
		}
		row[i] = diag + rng.Float64()*noise
	}
	return m
}

// pairsBysource indexes a result's pairs by source row.
func pairsBySource(r *Result) map[int]int {
	out := make(map[int]int, len(r.Pairs))
	for _, p := range r.Pairs {
		out[p.Source] = p.Target
	}
	return out
}

func diagonalHits(r *Result) int {
	hits := 0
	for _, p := range r.Pairs {
		if p.Source == p.Target {
			hits++
		}
	}
	return hits
}

func TestMatchRejectsNilContext(t *testing.T) {
	for _, m := range []Matcher{NewDInf(), NewCSLS(1), NewRInf(), NewRInfWR(),
		NewSinkhorn(10), NewHungarian(), NewSMat(), NewRL(DefaultRLConfig()), NewRInfPB(5)} {
		if _, err := m.Match(nil); err == nil {
			t.Fatalf("%s accepted nil context", m.Name())
		}
		if _, err := m.Match(&Context{}); err == nil {
			t.Fatalf("%s accepted context without matrix", m.Name())
		}
	}
}

func TestMatcherNames(t *testing.T) {
	want := map[Matcher]string{
		NewDInf():                "DInf",
		NewCSLS(1):               "CSLS",
		NewRInf():                "RInf",
		NewRInfWR():              "RInf-wr",
		NewRInfPB(10):            "RInf-pb",
		NewSinkhorn(5):           "Sink.",
		NewHungarian():           "Hun.",
		NewSMat():                "SMat",
		NewRL(DefaultRLConfig()): "RL",
	}
	for m, name := range want {
		if m.Name() != name {
			t.Fatalf("Name() = %q, want %q", m.Name(), name)
		}
	}
}

func TestCompositeDerivedName(t *testing.T) {
	c := NewComposite(CSLSTransform{K: 3}, HungarianDecider{}, "")
	if c.Name() != "csls+hungarian" {
		t.Fatalf("derived name %q", c.Name())
	}
}

// TestAllMatchersRecoverCleanDiagonal: on an unambiguous matrix every
// algorithm must find the identity alignment.
func TestAllMatchersRecoverCleanDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := diagonalish(rng, 30, 1.0, 0.1)
	ctx := &Context{S: s}
	for _, m := range []Matcher{NewDInf(), NewCSLS(1), NewCSLS(5), NewRInf(), NewRInfWR(),
		NewRInfPB(8), NewSinkhorn(20), NewHungarian(), NewSMat(), NewRL(DefaultRLConfig())} {
		res, err := m.Match(ctx)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if got := diagonalHits(res); got != 30 {
			t.Fatalf("%s recovered %d/30 diagonal pairs", m.Name(), got)
		}
		if len(res.Abstained) != 0 {
			t.Fatalf("%s abstained on clean input: %v", m.Name(), res.Abstained)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%s reported non-positive elapsed time", m.Name())
		}
	}
}

// TestMatchersDoNotMutateInput: the similarity matrix must be unchanged.
func TestMatchersDoNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randScores(rng, 20, 25)
	orig := s.Clone()
	ctx := &Context{S: s}
	for _, m := range []Matcher{NewDInf(), NewCSLS(2), NewRInf(), NewRInfWR(),
		NewRInfPB(5), NewSinkhorn(10), NewHungarian(), NewSMat(), NewRL(DefaultRLConfig())} {
		if _, err := m.Match(ctx); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !matrix.Equal(s, orig) {
			t.Fatalf("%s mutated the input matrix", m.Name())
		}
	}
}

func TestGreedyPicksRowArgmax(t *testing.T) {
	s := mat(t,
		[]float64{0.1, 0.9, 0.3},
		[]float64{0.8, 0.2, 0.7},
	)
	res, err := NewDInf().Match(&Context{S: s})
	if err != nil {
		t.Fatal(err)
	}
	got := pairsBySource(res)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("greedy pairs = %v", got)
	}
}

// TestGreedyAllowsConflicts: DInf may assign one target to many sources —
// the defining weakness the paper's Example 1 illustrates.
func TestGreedyAllowsConflicts(t *testing.T) {
	s := mat(t,
		[]float64{0.9, 0.1},
		[]float64{0.8, 0.1},
		[]float64{0.7, 0.1},
	)
	res, err := NewDInf().Match(&Context{S: s})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Pairs {
		if p.Target != 0 {
			t.Fatalf("expected every source to claim target 0, got %+v", p)
		}
	}
}

func TestGreedyDummyAbstention(t *testing.T) {
	s := mat(t,
		[]float64{0.2, 0.1},
		[]float64{0.1, 0.3},
	)
	padded := AddDummyColumns(s, 1, 0.25)
	res, err := NewDInf().Match(&Context{S: padded, NumDummies: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: best real score 0.2 < dummy 0.25 → abstain. Row 1: 0.3 wins.
	if len(res.Abstained) != 1 || res.Abstained[0] != 0 {
		t.Fatalf("abstained = %v", res.Abstained)
	}
	if len(res.Pairs) != 1 || res.Pairs[0].Target != 1 {
		t.Fatalf("pairs = %+v", res.Pairs)
	}
}

func TestAddDummyColumns(t *testing.T) {
	s := mat(t, []float64{1, 2})
	out := AddDummyColumns(s, 2, -5)
	if out.Cols() != 4 || out.At(0, 2) != -5 || out.At(0, 3) != -5 {
		t.Fatalf("padded = %v", out.Data())
	}
	if AddDummyColumns(s, 0, 0) != s {
		t.Fatal("n=0 did not return the original")
	}
}

func TestWithDummiesSquaresTallMatrix(t *testing.T) {
	s := matrix.New(5, 3)
	ctx := PadDummies(&Context{S: s}, s.Rows()-s.Cols(), 0)
	if ctx.S.Cols() != 5 || ctx.NumDummies != 2 {
		t.Fatalf("cols=%d dummies=%d", ctx.S.Cols(), ctx.NumDummies)
	}
	wide := matrix.New(3, 5)
	ctx2 := &Context{S: wide}
	if PadDummies(ctx2, wide.Rows()-wide.Cols(), 0) != ctx2 {
		t.Fatal("wide matrix was padded")
	}
}

func TestResultExtraBytesOrdering(t *testing.T) {
	// The paper's memory ordering on medium data: DInf < CSLS < RInf, and
	// SMat is the most expensive.
	rng := rand.New(rand.NewSource(3))
	s := randScores(rng, 40, 40)
	ctx := &Context{S: s}
	get := func(m Matcher) int64 {
		res, err := m.Match(ctx)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		return res.ExtraBytes
	}
	dinf := get(NewDInf())
	csls := get(NewCSLS(1))
	rinf := get(NewRInf())
	smat := get(NewSMat())
	if !(dinf < csls && csls < rinf) {
		t.Fatalf("memory ordering violated: DInf=%d CSLS=%d RInf=%d", dinf, csls, rinf)
	}
	if smat <= csls {
		t.Fatalf("SMat=%d not above CSLS=%d", smat, csls)
	}
}
