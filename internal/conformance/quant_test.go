package conformance

import (
	"context"
	"testing"

	"entmatcher/internal/ann"
	"entmatcher/internal/core"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
	"entmatcher/internal/sim"
)

// The SQ8 contract mirrors the ANN one a layer down: the quantized two-phase
// scan (int8 ranking over the code slabs, exact float64 re-rank of the
// over-fetched pool) is an implementation detail, not an approximation. At
// the default rerank factor every emitted candidate graph must be
// bit-identical to the graph the float64 path would have built — against the
// exhaustive builders when the scan replaces them, and against the float IVF
// search when it rides the index. The adversarial embedding suite is shared
// with the ANN tests: duplicate rows, 1-ulp near-ties and all-constant
// tables are where the tie-aware pool boundary earns its keep (quantization
// collapses those scores to identical ints, the tie rule pools the whole
// collapse, and the re-rank becomes exhaustive over it).

// quantSource builds the cosine stream and an exhaustive quantized producer
// over a case at the default rerank factor.
func quantSource(t *testing.T, tc embedCase) (*sim.Stream, *quant.Source) {
	t.Helper()
	st, err := sim.NewStream(tc.Src, tc.Tgt, sim.Cosine)
	if err != nil {
		t.Fatalf("%s: NewStream: %v", tc.Name, err)
	}
	sTab, tTab := st.PreparedTables()
	srcQ, err := quant.Encode(context.Background(), sTab)
	if err != nil {
		t.Fatalf("%s: encoding source table: %v", tc.Name, err)
	}
	tgtQ, err := quant.Encode(context.Background(), tTab)
	if err != nil {
		t.Fatalf("%s: encoding target table: %v", tc.Name, err)
	}
	src, err := quant.NewSource(st, sTab, tTab, srcQ, tgtQ, 0, true)
	if err != nil {
		t.Fatalf("%s: NewSource: %v", tc.Name, err)
	}
	return st, src
}

// TestQuantGraphExactVsExhaustive pins the differential oracle for the
// exhaustive quantized scan: forward graphs, fused forward+reverse pairs,
// and kCol=1 column means from the quant source must be BIT-IDENTICAL to the
// exhaustive float64 builders' on every adversarial embedding case.
func TestQuantGraphExactVsExhaustive(t *testing.T) {
	cc := context.Background()
	for _, tc := range annCases(suiteSeed) {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			st, src := quantSource(t, tc)
			for _, c := range []int{1, 3, tc.Tgt.Rows(), tc.Tgt.Rows() + 5} {
				wantF, wantR, err := matrix.BuildCandGraphs(cc, st, c, c)
				if err != nil {
					t.Fatalf("exact C=%d: %v", c, err)
				}
				gotF, gotR, err := matrix.BuildCandGraphs(cc, src, c, c)
				if err != nil {
					t.Fatalf("quant C=%d: %v", c, err)
				}
				if !graphsIdentical(wantF, gotF) {
					t.Fatalf("C=%d: forward graph differs from the exact build", c)
				}
				if !graphsIdentical(wantR, gotR) {
					t.Fatalf("C=%d: reverse graph differs from the exact build", c)
				}
			}
			wantG, wantM, err := matrix.BuildCandGraphWithColMeans(cc, st, 3, 1)
			if err != nil {
				t.Fatalf("exact colmeans: %v", err)
			}
			gotG, gotM, err := matrix.BuildCandGraphWithColMeans(cc, src, 3, 1)
			if err != nil {
				t.Fatalf("quant colmeans: %v", err)
			}
			if !graphsIdentical(wantG, gotG) {
				t.Fatal("colmeans forward graph differs from the exact build")
			}
			for j := range wantM {
				if wantM[j] != gotM[j] {
					t.Fatalf("col %d: kCol=1 mean %v != exact %v", j, gotM[j], wantM[j])
				}
			}
		})
	}
}

// TestQuantGraphMatchesFloatIVF pins the other face of the contract: an ANN
// source with the quantized scan enabled must emit graphs bit-identical to a
// float ANN source with the same clusters/seed/nprobe — at full AND partial
// coverage, because the quantized slab scan ranks the same probed cells (the
// cell ranking stays float64) and the re-rank restores the float bits within
// them.
func TestQuantGraphMatchesFloatIVF(t *testing.T) {
	cc := context.Background()
	for _, tc := range annCases(suiteSeed) {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, nprobe := range []int{2, 6} {
				cfg := ann.Config{Clusters: 6, NProbe: nprobe, Seed: 13}
				_, floatSrc := annSource(t, tc, cfg)
				st, qSrc := annSource(t, tc, cfg)
				sTab, tTab := st.PreparedTables()
				srcQ, err := quant.Encode(cc, sTab)
				if err != nil {
					t.Fatalf("encoding source table: %v", err)
				}
				tgtQ, err := quant.Encode(cc, tTab)
				if err != nil {
					t.Fatalf("encoding target table: %v", err)
				}
				if err := qSrc.EnableQuant(srcQ, tgtQ, 0, true); err != nil {
					t.Fatalf("EnableQuant: %v", err)
				}
				c := min(5, tc.Tgt.Rows())
				wantF, wantR, err := matrix.BuildCandGraphs(cc, floatSrc, c, c)
				if err != nil {
					t.Fatalf("float IVF nprobe=%d: %v", nprobe, err)
				}
				gotF, gotR, err := matrix.BuildCandGraphs(cc, qSrc, c, c)
				if err != nil {
					t.Fatalf("quant IVF nprobe=%d: %v", nprobe, err)
				}
				if !graphsIdentical(wantF, gotF) {
					t.Fatalf("nprobe=%d: forward graph differs from the float IVF build", nprobe)
				}
				if !graphsIdentical(wantR, gotR) {
					t.Fatalf("nprobe=%d: reverse graph differs from the float IVF build", nprobe)
				}
			}
		})
	}
}

// TestQuantMatchersExactOnQuantSource lifts the oracle to matcher level: a
// sparse matcher fed the exhaustive quantized source must produce results
// identical to the same matcher on the plain stream — pairs, scores, and
// abstentions. CSLS runs at k=1, the pinned column-means case (the same
// documented exception as the ANN source: at k>1 summation order can differ
// in the last ulps).
func TestQuantMatchersExactOnQuantSource(t *testing.T) {
	matchers := []struct {
		name string
		mk   func(c int) core.Matcher
	}{
		{"CSLS-k1", func(c int) core.Matcher { return core.NewCSLSSparse(c, 1) }},
		{"RInf", func(c int) core.Matcher { return core.NewRInfSparse(c) }},
		{"Sink.", func(c int) core.Matcher { return core.NewSinkhornSparse(c, core.DefaultSinkhornIterations) }},
		{"Hun.", func(c int) core.Matcher { return core.NewHungarianSparse(c) }},
		{"SMat", func(c int) core.Matcher { return core.NewSMatSparse(c) }},
	}
	for _, tc := range annCases(suiteSeed) {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			st, src := quantSource(t, tc)
			c := min(7, tc.Tgt.Rows())
			for _, m := range matchers {
				want, err := m.mk(c).Match(&core.Context{Stream: st})
				if err != nil {
					t.Fatalf("%s exact: %v", m.name, err)
				}
				got, err := m.mk(c).Match(&core.Context{Stream: src})
				if err != nil {
					t.Fatalf("%s quant: %v", m.name, err)
				}
				if !ResultsIdentical(want, got) {
					t.Fatalf("%s diverged on the quantized source: %s", m.name, DescribeDiff(want, got))
				}
			}
		})
	}
}
