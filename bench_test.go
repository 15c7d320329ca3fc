package entmatcher_test

// One testing.B benchmark per paper table and figure (backed by the
// internal/bench experiment registry at smoke-test scale), plus
// per-algorithm microbenchmarks of the matching stage itself. The full-size
// reproduction run is cmd/benchtab; these benchmarks exist so that
// `go test -bench=.` exercises every experiment end to end and tracks the
// matchers' costs.

import (
	"fmt"
	"math/rand"
	"testing"

	"entmatcher"
	"entmatcher/internal/bench"
	"entmatcher/internal/matrix"
)

// benchEnv is shared across experiment benchmarks so dataset generation and
// embedding work is not re-measured for every b.N iteration.
var benchEnv = bench.NewEnv()

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := bench.QuickConfig()
	exp, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(&cfg, benchEnv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Datasets(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)         { runExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)         { runExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)         { runExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B)         { runExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B)         { runExperiment(b, "table8") }
func BenchmarkFigure4(b *testing.B)        { runExperiment(b, "figure4") }
func BenchmarkFigure5(b *testing.B)        { runExperiment(b, "figure5") }
func BenchmarkFigure6(b *testing.B)        { runExperiment(b, "figure6") }
func BenchmarkFigure7(b *testing.B)        { runExperiment(b, "figure7") }
func BenchmarkDeepEM(b *testing.B)         { runExperiment(b, "deepem") }

// benchMatrix builds a reproducible noisy-diagonal similarity matrix, the
// workload shape every matcher sees in the experiments.
func benchMatrix(n int) *matrix.Dense {
	rng := rand.New(rand.NewSource(99))
	s := matrix.New(n, n)
	data := s.Data()
	for i := range data {
		data[i] = rng.Float64() * 0.5
	}
	for i := 0; i < n; i++ {
		s.Set(i, i, 0.5+rng.Float64()*0.5)
	}
	return s
}

// BenchmarkMatchers measures each algorithm's matching stage on a fixed
// similarity matrix, the per-algorithm cost axis of Figure 5.
func BenchmarkMatchers(b *testing.B) {
	for _, n := range []int{200, 800} {
		s := benchMatrix(n)
		ctx := &entmatcher.MatchContext{S: s}
		for _, m := range []entmatcher.Matcher{
			entmatcher.NewDInf(), entmatcher.NewCSLS(1), entmatcher.NewRInf(), entmatcher.NewRInfWR(), entmatcher.NewRInfPB(50),
			entmatcher.NewSinkhorn(100), entmatcher.NewHungarian(), entmatcher.NewSMat(), entmatcher.NewRL(),
		} {
			m := m
			b.Run(fmt.Sprintf("%s/n=%d", m.Name(), n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := m.Match(ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDenseBodies times the three dense matcher bodies that dominate the
// paper_dense harness workload (SMat's preference builds, RInf's rank
// transforms, Sinkhorn's normalization sweeps) in isolation at n = 1000, with
// allocations reported: their scratch is pooled, so allocs/op must not grow
// with n.
func BenchmarkDenseBodies(b *testing.B) {
	ctx := &entmatcher.MatchContext{S: benchMatrix(1000)}
	for _, bc := range []struct {
		name string
		m    entmatcher.Matcher
	}{
		{"smat", entmatcher.NewSMat()},
		{"rinf", entmatcher.NewRInf()},
		{"sinkhorn", entmatcher.NewSinkhorn(entmatcher.DefaultSinkhornIterations)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.m.Match(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparseFiveMatchers times the sparse_exact harness workload's shape
// — RInf, CSLS (k = 1), Hun., SMat, Sink. in that order on one prepared exact
// run, graphs forgotten before each round — and reports what the round cost
// the candidate-graph memo: full tile passes (one: CSLS reads its column
// statistic off RInf's reverse graph) and bytes held at the end.
func BenchmarkSparseFiveMatchers(b *testing.B) {
	const cand = 32
	d, err := entmatcher.GenerateBenchmark(entmatcher.ProfileDBP15KZhEn, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	run, err := entmatcher.NewPipeline(entmatcher.PipelineConfig{Model: entmatcher.ModelRREA, CandidateBudget: cand}).Prepare(d)
	if err != nil {
		b.Fatal(err)
	}
	defer run.Close()
	matchers := []entmatcher.Matcher{
		entmatcher.NewRInfSparse(cand), entmatcher.NewCSLSSparse(cand, 1), entmatcher.NewHungarianSparse(cand),
		entmatcher.NewSMatSparse(cand), entmatcher.NewSinkhornSparse(cand, entmatcher.DefaultSinkhornIterations),
	}
	before := run.GraphStats().Passes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.ForgetGraphs()
		for _, m := range matchers {
			if _, _, err := run.Match(m); err != nil {
				b.Fatalf("%s: %v", m.Name(), err)
			}
		}
	}
	st := run.GraphStats()
	b.ReportMetric(float64(st.Passes-before)/float64(b.N), "passes/op")
	b.ReportMetric(float64(st.Bytes), "memo-bytes")
}

// BenchmarkPipelinePrepare measures the substrate cost: dataset generation,
// encoding and similarity-matrix construction.
func BenchmarkPipelinePrepare(b *testing.B) {
	d, err := entmatcher.GenerateBenchmark(entmatcher.ProfileDBP15KZhEn, 0.03)
	if err != nil {
		b.Fatal(err)
	}
	p := entmatcher.NewPipeline(entmatcher.PipelineConfig{Model: entmatcher.ModelRREA})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Prepare(d); err != nil {
			b.Fatal(err)
		}
	}
}
