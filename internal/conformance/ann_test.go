package conformance

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"entmatcher/internal/ann"
	"entmatcher/internal/core"
	"entmatcher/internal/matrix"
	"entmatcher/internal/sim"
)

// embedCase is an adversarial embedding-table pair for the ANN differential
// suite. Unlike the score-matrix AdversarialCases, these exist at the layer
// below: the IVF index and the exact builders both start from the raw
// tables, so the oracle relation is "same tables in, same graph out".
type embedCase struct {
	Name     string
	Src, Tgt *matrix.Dense
}

// annCases returns the pinned adversarial embedding suite: clustered tables
// (the geometry IVF exploits), duplicate rows (identical scores everywhere),
// 1-ulp near-ties (selection order decided in the last bit), constant
// embeddings (every score ties), and a short-vector case that exercises the
// scalar dot path even on AVX2 hosts.
func annCases(seed int64) []embedCase {
	rng := rand.New(rand.NewSource(seed))
	gauss := func(n, d, nClust int, noise float64) *matrix.Dense {
		centers := make([][]float64, nClust)
		for c := range centers {
			centers[c] = make([]float64, d)
			for x := range centers[c] {
				centers[c][x] = rng.NormFloat64()
			}
		}
		m := matrix.New(n, d)
		for i := 0; i < n; i++ {
			ctr := centers[rng.Intn(nClust)]
			row := m.Row(i)
			for x := range row {
				row[x] = ctr[x] + noise*rng.NormFloat64()
			}
		}
		return m
	}
	dupRows := func(n, d int) *matrix.Dense {
		base := gauss(n/3+1, d, 2, 0.2)
		m := matrix.New(n, d)
		for i := 0; i < n; i++ {
			copy(m.Row(i), base.Row(i%base.Rows()))
		}
		return m
	}
	nearTies := func(n, d int) *matrix.Dense {
		base := make([]float64, d)
		for x := range base {
			base[x] = rng.NormFloat64()
		}
		m := matrix.New(n, d)
		for i := 0; i < n; i++ {
			row := m.Row(i)
			copy(row, base)
			// Nudge one coordinate by a single ulp so pairwise scores
			// collide or differ only in the last bit.
			x := i % d
			if i%2 == 0 {
				row[x] = math.Nextafter(row[x], math.Inf(1))
			} else {
				row[x] = math.Nextafter(row[x], math.Inf(-1))
			}
		}
		return m
	}
	constant := func(n, d int) *matrix.Dense {
		m := matrix.New(n, d)
		for i := 0; i < n; i++ {
			row := m.Row(i)
			for x := range row {
				row[x] = 0.25
			}
		}
		return m
	}
	return []embedCase{
		{"clustered", gauss(48, 32, 5, 0.3), gauss(44, 32, 5, 0.3)},
		{"non-square", gauss(21, 32, 3, 0.3), gauss(57, 32, 3, 0.3)},
		{"duplicate-rows", dupRows(36, 32), dupRows(30, 32)},
		{"near-ties-1ulp", nearTies(40, 32), nearTies(40, 32)},
		{"constant", constant(25, 32), constant(25, 32)},
		{"short-vectors", gauss(30, 8, 3, 0.3), gauss(28, 8, 3, 0.3)},
		{"tiny", gauss(3, 32, 1, 0.3), gauss(2, 32, 1, 0.3)},
	}
}

// annSource builds the cosine stream and an IVF producer over a case.
func annSource(t *testing.T, tc embedCase, cfg ann.Config) (*sim.Stream, *ann.Source) {
	t.Helper()
	st, err := sim.NewStream(tc.Src, tc.Tgt, sim.Cosine)
	if err != nil {
		t.Fatalf("%s: NewStream: %v", tc.Name, err)
	}
	sTab, tTab := st.PreparedTables()
	src, err := ann.NewSource(st, sTab, tTab, cfg)
	if err != nil {
		t.Fatalf("%s: NewSource: %v", tc.Name, err)
	}
	return st, src
}

func graphsIdentical(a, b *matrix.CandGraph) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		aj, as := a.Row(i)
		bj, bs := b.Row(i)
		if len(aj) != len(bj) {
			return false
		}
		for x := range aj {
			if aj[x] != bj[x] || as[x] != bs[x] {
				return false
			}
		}
	}
	return true
}

// recallOf returns the micro-averaged fraction of exact edges recovered.
func recallOf(exact, approx *matrix.CandGraph) float64 {
	var hit, total int
	for i := 0; i < exact.Rows(); i++ {
		ej, _ := exact.Row(i)
		aj, _ := approx.Row(i)
		total += len(ej)
		in := make(map[int32]bool, len(aj))
		for _, j := range aj {
			in[j] = true
		}
		for _, j := range ej {
			if in[j] {
				hit++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}

// TestANNGraphExactAtFullCoverage pins the differential oracle at nprobe =
// Clusters: the forward graph, the fused forward+reverse pair, and the
// kCol=1 column means must all be BIT-IDENTICAL to the exhaustive builders'
// on every adversarial embedding case — duplicate rows, 1-ulp ties and
// all-constant tables included, which is where selection tie-breaks and the
// shared dot-kernel bits actually get exercised.
func TestANNGraphExactAtFullCoverage(t *testing.T) {
	cc := context.Background()
	for _, tc := range annCases(suiteSeed) {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			const k = 6
			st, src := annSource(t, tc, ann.Config{Clusters: k, NProbe: k, Seed: 3})
			for _, c := range []int{1, 3, tc.Tgt.Rows(), tc.Tgt.Rows() + 5} {
				wantF, wantR, err := matrix.BuildCandGraphs(cc, st, c, c)
				if err != nil {
					t.Fatalf("exact C=%d: %v", c, err)
				}
				gotF, gotR, err := matrix.BuildCandGraphs(cc, src, c, c)
				if err != nil {
					t.Fatalf("ann C=%d: %v", c, err)
				}
				if !graphsIdentical(wantF, gotF) {
					t.Fatalf("C=%d: forward graph differs from exact at full coverage", c)
				}
				if !graphsIdentical(wantR, gotR) {
					t.Fatalf("C=%d: reverse graph differs from exact at full coverage", c)
				}
			}
			wantG, wantM, err := matrix.BuildCandGraphWithColMeans(cc, st, 3, 1)
			if err != nil {
				t.Fatalf("exact colmeans: %v", err)
			}
			gotG, gotM, err := matrix.BuildCandGraphWithColMeans(cc, src, 3, 1)
			if err != nil {
				t.Fatalf("ann colmeans: %v", err)
			}
			if !graphsIdentical(wantG, gotG) {
				t.Fatal("colmeans forward graph differs from exact at full coverage")
			}
			for j := range wantM {
				if wantM[j] != gotM[j] {
					t.Fatalf("col %d: kCol=1 mean %v != exact %v", j, gotM[j], wantM[j])
				}
			}
		})
	}
}

// TestANNMatchersExactAtFullCoverage lifts the oracle to matcher level: a
// sparse matcher fed the full-coverage ANN source must produce results
// identical to the same matcher on the plain stream — pairs, scores, and
// abstentions. CSLS runs at k=1, where its φ_t statistic is a single score
// and therefore carries no summation-order slack (at k>1 the ANN column
// means can differ from the dense heap-order sums in the last ulps; that
// documented exception is exactly why k=1 is the pinned case).
func TestANNMatchersExactAtFullCoverage(t *testing.T) {
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
			const k = 5
			st, src := annSource(t, tc, ann.Config{Clusters: k, NProbe: k, Seed: 7})
			c := min(7, tc.Tgt.Rows())
			for _, m := range matchers {
				want, err := m.mk(c).Match(&core.Context{Stream: st})
				if err != nil {
					t.Fatalf("%s exact: %v", m.name, err)
				}
				got, err := m.mk(c).Match(&core.Context{Stream: src})
				if err != nil {
					t.Fatalf("%s ann: %v", m.name, err)
				}
				if !ResultsIdentical(want, got) {
					t.Fatalf("%s diverged on full-coverage ANN source: %s", m.name, DescribeDiff(want, got))
				}
			}
		})
	}
}

// TestANNRecallMonotoneAndFloored pins the partial-coverage behavior: probed
// cell sets are nested as nprobe grows (cells are ranked once per query), so
// recall@C against the exact graph must be non-decreasing in nprobe, reach
// 1.0 at full coverage, and stay above a pinned floor at half coverage on
// the clusterable cases. The degenerate-tie cases get no floor: when every
// pairwise score is identical up to ulps the cell ranking is arbitrary (a
// query's top cells carry no information about where the corpus landed), so
// any partial-coverage recall is legitimate there — only monotonicity and
// full-coverage exactness are contractual.
func TestANNRecallMonotoneAndFloored(t *testing.T) {
	cc := context.Background()
	floors := map[string]float64{
		"clustered": 0.5, "non-square": 0.5, "duplicate-rows": 0.5,
		"short-vectors": 0.5, "tiny": 0.5,
		"near-ties-1ulp": 0, "constant": 0,
	}
	for _, tc := range annCases(suiteSeed) {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			const k = 8
			st, src := annSource(t, tc, ann.Config{Clusters: k, Seed: 5})
			c := min(5, tc.Tgt.Rows())
			exact, err := matrix.BuildCandGraph(cc, st, c)
			if err != nil {
				t.Fatalf("exact: %v", err)
			}
			prev := -1.0
			var atHalf float64
			for np := 1; np <= k; np++ {
				g, err := matrix.BuildCandGraph(cc, src.WithNProbe(np), c)
				if err != nil {
					t.Fatalf("nprobe=%d: %v", np, err)
				}
				r := recallOf(exact, g)
				if r < prev {
					t.Fatalf("recall not monotone: %.4f at nprobe=%d after %.4f", r, np, prev)
				}
				prev = r
				if np == k/2 {
					atHalf = r
				}
			}
			if prev != 1 {
				t.Fatalf("recall at full coverage = %.6f, want exactly 1", prev)
			}
			if atHalf < floors[tc.Name] {
				t.Fatalf("recall at half coverage = %.3f, below the %.2f floor", atHalf, floors[tc.Name])
			}
		})
	}
}

// TestANNDeterministicAcrossBuilds: two independent sources with the same
// seed must produce bit-identical graphs at partial coverage (where cell
// assignment actually matters), and repeated queries of one source must
// agree with themselves.
func TestANNDeterministicAcrossBuilds(t *testing.T) {
	cc := context.Background()
	for _, tc := range annCases(suiteSeed) {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			cfg := ann.Config{Clusters: 7, NProbe: 2, Seed: 11}
			_, srcA := annSource(t, tc, cfg)
			_, srcB := annSource(t, tc, cfg)
			c := min(6, tc.Tgt.Rows())
			gA, err := matrix.BuildCandGraph(cc, srcA, c)
			if err != nil {
				t.Fatal(err)
			}
			gB, err := matrix.BuildCandGraph(cc, srcB, c)
			if err != nil {
				t.Fatal(err)
			}
			if !graphsIdentical(gA, gB) {
				t.Fatal("same-seed builds produced different graphs")
			}
			gA2, err := matrix.BuildCandGraph(cc, srcA, c)
			if err != nil {
				t.Fatal(err)
			}
			if !graphsIdentical(gA, gA2) {
				t.Fatal("repeated query of one source not deterministic")
			}
		})
	}
}
