package entmatcher_test

// Dense-vs-streaming microbenchmarks: each iteration runs an engine end to
// end — similarity computation plus matching — over the same embeddings, so
// the numbers capture what the pipeline actually pays per run. The dense
// engine materializes the n×n score matrix and scans it; the streaming
// engine fuses the scan into 256×512 tiles and never allocates the matrix.
// Run with
//
//	go test -run='^$' -bench=BenchmarkStream -benchtime=1x
//
// The per-run numbers the repo tracks are the benchmark harness's
// sim.stream_s / sim.matrix_s (bash benchmark/run.sh).

import (
	"fmt"
	"math/rand"
	"testing"

	"entmatcher"
	"entmatcher/internal/matrix"
)

func benchEmbeddings(n, d int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.New(n, d)
	data := m.Data()
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return m
}

var streamBenchSizes = []int{2000, 8000, 16000}

// streamBenchDim matches the embedding dimension used by the large-scale
// experiments (Table 6).
const streamBenchDim = 32

// runStreamBench benchmarks a dense matcher against its streaming
// counterpart at each size. Under -short the 16k case is skipped: its dense
// leg allocates a 2 GiB score matrix per iteration, more than CI runners
// should be asked to hold.
func runStreamBench(b *testing.B, newDense, newStream func() entmatcher.Matcher) {
	for _, n := range streamBenchSizes {
		if testing.Short() && n > 8000 {
			continue
		}
		src := benchEmbeddings(n, streamBenchDim, 7)
		tgt := benchEmbeddings(n, streamBenchDim, 8)
		b.Run(fmt.Sprintf("dense/n=%d", n), func(b *testing.B) {
			m := newDense()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := entmatcher.SimilarityMatrix(src, tgt, entmatcher.MetricCosine)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Match(&entmatcher.MatchContext{S: s}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("stream/n=%d", n), func(b *testing.B) {
			m := newStream()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := entmatcher.NewSimilarityStream(src, tgt, entmatcher.MetricCosine)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Match(&entmatcher.MatchContext{Stream: st}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamSimGreedy compares similarity+greedy-argmax (DInf) across
// the two engines.
func BenchmarkStreamSimGreedy(b *testing.B) {
	runStreamBench(b, entmatcher.NewDInf, entmatcher.NewDInfStream)
}

// BenchmarkStreamSimCSLS compares similarity+CSLS (k=10) across the two
// engines; CSLS is the worst case for streaming because it needs two passes
// over the scores.
func BenchmarkStreamSimCSLS(b *testing.B) {
	runStreamBench(b,
		func() entmatcher.Matcher { return entmatcher.NewCSLS(10) },
		func() entmatcher.Matcher { return entmatcher.NewCSLSStream(10) },
	)
}
