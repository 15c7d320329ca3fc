package conformance

import (
	"testing"

	"entmatcher/internal/core"
)

// sparseEntry pairs a sparse candidate-graph twin with its dense counterpart.
type sparseEntry struct {
	Name string
	// Dense builds the reference dense matcher.
	Dense func() core.Matcher
	// Sparse builds the candidate-graph twin at budget c.
	Sparse func(c int) core.Matcher
}

// sparseTwins lists the five candidate-graph matchers against the dense
// algorithms they must reproduce bit-for-bit at full candidate width.
func sparseTwins() []sparseEntry {
	return []sparseEntry{
		{Name: "CSLS", Dense: func() core.Matcher { return core.NewCSLS(1) },
			Sparse: func(c int) core.Matcher { return core.NewCSLSSparse(c, 1) }},
		{Name: "CSLS-k3", Dense: func() core.Matcher { return core.NewCSLS(3) },
			Sparse: func(c int) core.Matcher { return core.NewCSLSSparse(c, 3) }},
		{Name: "RInf", Dense: func() core.Matcher { return core.NewRInf() },
			Sparse: func(c int) core.Matcher { return core.NewRInfSparse(c) }},
		{Name: "Sink.", Dense: func() core.Matcher { return core.NewSinkhorn(core.DefaultSinkhornIterations) },
			Sparse: func(c int) core.Matcher { return core.NewSinkhornSparse(c, core.DefaultSinkhornIterations) }},
		{Name: "Hun.", Dense: func() core.Matcher { return core.NewHungarian() },
			Sparse: func(c int) core.Matcher { return core.NewHungarianSparse(c) }},
		{Name: "SMat", Dense: func() core.Matcher { return core.NewSMat() },
			Sparse: func(c int) core.Matcher { return core.NewSMatSparse(c) }},
	}
}

// TestSparseTwinsMatchDenseAtFullWidth pins the tentpole exactness contract:
// at candidate budget C >= max(rows, cols), every sparse twin's result —
// pairs, scores bit for bit, abstentions — is identical to its dense
// counterpart's on every adversarial case (dummy/abstention cases included),
// on a dense context and under every streaming tile geometry.
func TestSparseTwinsMatchDenseAtFullWidth(t *testing.T) {
	for _, tc := range AdversarialCases(suiteSeed) {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			ctx := &core.Context{S: tc.S, NumDummies: tc.NumDummies}
			full := tc.S.Rows() + tc.S.Cols() // >= max(rows, cols)
			for _, e := range sparseTwins() {
				dense, err := e.Dense().Match(ctx)
				if err != nil {
					t.Fatalf("%s dense: %v", e.Name, err)
				}
				sparse, err := e.Sparse(full).Match(ctx)
				if err != nil {
					t.Fatalf("%s sparse: %v", e.Name, err)
				}
				if !ResultsIdentical(dense, sparse) {
					t.Fatalf("%s sparse diverged from dense at full width: %s", e.Name, DescribeDiff(dense, sparse))
				}
				for _, shape := range TileShapes {
					st, err := e.Sparse(full).Match(StreamContext(ctx, shape[0], shape[1]))
					if err != nil {
						t.Fatalf("%s sparse tiles %v: %v", e.Name, shape, err)
					}
					if !ResultsIdentical(dense, st) {
						t.Fatalf("%s sparse tiles %v diverged from dense: %s", e.Name, shape, DescribeDiff(dense, st))
					}
				}
			}
		})
	}
}

// TestRInfSparseMatchesRInfPB pins the below-width contract of the sparse
// reciprocal matcher: at EVERY candidate budget — not just full width — it
// computes exactly what progressive-blocking RInf computes at the same C
// (OracleRInfPB), because it ranks the same top-C blocks under the same
// preference order and absence penalty. A row whose pick is a dummy column
// abstains.
func TestRInfSparseMatchesRInfPB(t *testing.T) {
	for _, tc := range AdversarialCases(suiteSeed) {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			ctx := &core.Context{S: tc.S, NumDummies: tc.NumDummies}
			for _, c := range []int{1, 2, 3, tc.S.Cols(), tc.S.Rows() + tc.S.Cols()} {
				pb := &core.Result{}
				for _, p := range OracleRInfPB(tc.S, c) {
					if p.Target >= tc.S.Cols()-tc.NumDummies {
						pb.Abstained = append(pb.Abstained, p.Source)
					} else {
						pb.Pairs = append(pb.Pairs, p)
					}
				}
				sp, err := core.NewRInfSparse(c).Match(ctx)
				if err != nil {
					t.Fatalf("RInf-sparse C=%d: %v", c, err)
				}
				if !ResultsIdentical(pb, sp) {
					t.Fatalf("C=%d: RInf-sparse diverged from the RInf-pb oracle: %s", c, DescribeDiff(pb, sp))
				}
			}
		})
	}
}

// TestSparseTwinsStructuralBelowWidth checks that below full width — where
// results are legitimately approximate — every sparse twin still satisfies
// the universal structural invariants, stays deterministic across reruns and
// tile geometries, and the 1-to-1 matchers keep their cardinality contract.
func TestSparseTwinsStructuralBelowWidth(t *testing.T) {
	for _, tc := range AdversarialCases(suiteSeed) {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			ctx := &core.Context{S: tc.S, NumDummies: tc.NumDummies}
			for _, c := range []int{1, 2} {
				for _, e := range sparseTwins() {
					first, err := e.Sparse(c).Match(ctx)
					if err != nil {
						t.Fatalf("%s C=%d: %v", e.Name, c, err)
					}
					if err := CheckStructure(first, tc.S.Rows(), tc.S.Cols(), tc.NumDummies); err != nil {
						t.Fatalf("%s C=%d: %v", e.Name, c, err)
					}
					if e.Name == "Hun." || e.Name == "SMat" {
						if err := OneToOne(first.Pairs); err != nil {
							t.Fatalf("%s C=%d: %v", e.Name, c, err)
						}
					}
					second, err := e.Sparse(c).Match(ctx)
					if err != nil {
						t.Fatalf("%s C=%d rerun: %v", e.Name, c, err)
					}
					if !ResultsIdentical(first, second) {
						t.Fatalf("%s C=%d not deterministic: %s", e.Name, c, DescribeDiff(first, second))
					}
					for _, shape := range TileShapes {
						st, err := e.Sparse(c).Match(StreamContext(ctx, shape[0], shape[1]))
						if err != nil {
							t.Fatalf("%s C=%d tiles %v: %v", e.Name, c, shape, err)
						}
						if !ResultsIdentical(first, st) {
							t.Fatalf("%s C=%d tiles %v diverged: %s", e.Name, c, shape, DescribeDiff(first, st))
						}
					}
				}
			}
		})
	}
}
