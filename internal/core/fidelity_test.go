package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"entmatcher/internal/matrix"
)

// Fidelity guard for the efficiency results (the paper's Table 6 and
// Figure 5; EXPERIMENTS.md states the measured shape in prose): the memory
// order is deterministic and pinned on every run, the time order is
// qualitative and pinned with wide margins outside -short and -race.

// embeddingScores returns the cosine similarities between n source vectors
// and their noisy target copies in d dimensions — the shape of a real
// embedding space (a true match per row, hubs, a dense field of near-ties)
// rather than uniform noise, so the assignment matchers do real work. At
// d = 32, noise = 1.5 greedy Hits@1 is ≈ 0.6, the harness workload's level.
func embeddingScores(n, d int, noise float64, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	src, tgt := matrix.New(n, d), matrix.New(n, d)
	for i := 0; i < n; i++ {
		a, b := src.Row(i), tgt.Row(i)
		for k := range a {
			a[k] = rng.NormFloat64()
			b[k] = a[k] + noise*rng.NormFloat64()
		}
		for _, v := range [][]float64{a, b} {
			norm := math.Sqrt(matrix.Dot(v, v))
			for k := range v {
				v[k] /= norm
			}
		}
	}
	s, err := matrix.MulTransposed(src, tgt)
	if err != nil {
		panic(err)
	}
	return s
}

// table6Matchers are the rows of Table 6 at the experiments' settings.
func table6Matchers() []Matcher {
	return []Matcher{
		NewDInf(), NewCSLS(1), NewRInf(), NewRInfWR(), NewRInfPB(50),
		NewSinkhorn(DefaultSinkhornIterations), NewHungarian(), NewSMat(), NewRL(DefaultRLConfig()),
	}
}

// runFastest matches s with every matcher reps times and keeps, per matcher
// name, the fastest run — the least disturbed one on a shared host. The
// repetitions are the outer loop, so a burst of outside load lands on every
// matcher rather than on all runs of one.
func runFastest(t *testing.T, s *matrix.Dense, reps int, matchers ...Matcher) map[string]*Result {
	t.Helper()
	out := make(map[string]*Result)
	for r := 0; r < reps; r++ {
		for _, m := range matchers {
			res, err := m.Match(&Context{S: s})
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			if best := out[m.Name()]; best == nil || res.Elapsed < best.Elapsed {
				out[m.Name()] = res
			}
		}
	}
	return out
}

// TestTable6MemoryOrder pins the working-memory order of Table 6 and
// Figure 5b as the ExtraBytes accounting reports it at n = 600: DInf leanest;
// CSLS and Sink. one matrix; SMat's two int32 preference tables, one matrix
// and a little more; the RInf variants above them, full RInf — three
// matrices — the most. Expected deviations from the paper, encoded so they
// cannot silently grow: Hun. (in-place duals) and RL sit below CSLS here,
// where the paper marks Hun. memory-infeasible.
func TestTable6MemoryOrder(t *testing.T) {
	res := runFastest(t, embeddingScores(600, 32, 1.5, 1), 1, table6Matchers()...)
	mem := func(name string) int64 { return res[name].ExtraBytes }
	chain := []string{"DInf", "CSLS", "Sink.", "SMat", "RInf-wr", "RInf-pb", "RInf"}
	for k := 1; k < len(chain); k++ {
		lo, hi := chain[k-1], chain[k]
		if mem(lo) > mem(hi) {
			t.Errorf("memory order violated: %s (%d B) above %s (%d B)", lo, mem(lo), hi, mem(hi))
		}
	}
	for _, strict := range [][2]string{{"DInf", "CSLS"}, {"Sink.", "SMat"}, {"RInf-pb", "RInf"}, {"Hun.", "CSLS"}, {"RL", "CSLS"}} {
		if lo, hi := strict[0], strict[1]; mem(lo) >= mem(hi) {
			t.Errorf("memory order violated: %s (%d B) not below %s (%d B)", lo, mem(lo), hi, mem(hi))
		}
	}
	if one := matBytes(600, 600); mem("RInf") < 3*one || mem("SMat") < one || mem("SMat") >= 2*one {
		t.Errorf("RInf %d B / SMat %d B: want three matrices and one matrix of int32 tables (matrix = %d B)", mem("RInf"), mem("SMat"), one)
	}
}

// TestFigure5TimeShape pins the qualitative time order of Table 6 and
// Figure 5a at n = 600: DInf fastest, CSLS next, and the rank transform, the
// Sinkhorn iterations and the two assignment deciders each at least 5×
// DInf; RInf-wr faster than RInf. RInf-pb (C = 50) is held to RInf at
// n = 3000: since the rank transform runs at radix speed, selecting the top
// 50 of a 600-entry row costs about what ranking it does, and the blocked
// variant only pulls ahead from n ≈ 1000 up (measured 0.86× at 600, 1.2× at
// 1000, 1.9× at 2000, 2.6× at 3000) — the regime the paper's claim (DWY100K)
// is about. Expected deviation, not asserted: RL is fast here.
func TestFigure5TimeShape(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing shape: skipped under -short and -race")
	}
	res := runFastest(t, embeddingScores(600, 32, 1.5, 1), 3, table6Matchers()...)
	took := func(name string) time.Duration { return res[name].Elapsed }
	heavy := []string{"RInf", "Sink.", "Hun.", "SMat"}
	for _, name := range append([]string{"CSLS", "RInf-wr", "RInf-pb"}, heavy...) {
		if took("DInf") >= took(name) {
			t.Errorf("DInf (%v) not faster than %s (%v)", took("DInf"), name, took(name))
		}
	}
	for _, name := range heavy {
		if took("CSLS") >= took(name) {
			t.Errorf("CSLS (%v) not faster than %s (%v)", took("CSLS"), name, took(name))
		}
		if took(name) < 5*took("DInf") {
			t.Errorf("%s (%v) under 5× DInf (%v)", name, took(name), took("DInf"))
		}
	}
	if took("RInf-wr") >= took("RInf") {
		t.Errorf("RInf-wr (%v) not faster than RInf (%v)", took("RInf-wr"), took("RInf"))
	}
	long := runFastest(t, embeddingScores(3000, 32, 1.5, 1), 2, NewRInf(), NewRInfPB(50))
	if pb, full := long["RInf-pb"].Elapsed, long["RInf"].Elapsed; pb >= full {
		t.Errorf("n=3000: RInf-pb (%v) not faster than RInf (%v)", pb, full)
	}
}
