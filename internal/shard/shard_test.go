package shard

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"entmatcher/internal/matrix"
	"entmatcher/internal/sim"
)

// clusteredTable returns an n×d table of unit-normalized rows drawn from
// nClust Gaussian bumps — the clustered geometry that makes co-clustering
// meaningful, mirroring internal/ann's generator.
func clusteredTable(rng *rand.Rand, n, d, nClust int) *matrix.Dense {
	centers := make([][]float64, nClust)
	for c := range centers {
		centers[c] = make([]float64, d)
		for x := range centers[c] {
			centers[c][x] = rng.NormFloat64()
		}
	}
	m := matrix.New(n, d)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		ctr := centers[rng.Intn(nClust)]
		var nrm float64
		for x := range row {
			row[x] = ctr[x] + 0.3*rng.NormFloat64()
			nrm += row[x] * row[x]
		}
		nrm = math.Sqrt(nrm)
		for x := range row {
			row[x] /= nrm
		}
	}
	return m
}

func graphsEqual(t *testing.T, want, got *matrix.CandGraph, label string) {
	t.Helper()
	if want.Rows() != got.Rows() || want.Cols() != got.Cols() || want.NNZ() != got.NNZ() {
		t.Fatalf("%s: shape mismatch: want %dx%d nnz=%d, got %dx%d nnz=%d", label,
			want.Rows(), want.Cols(), want.NNZ(), got.Rows(), got.Cols(), got.NNZ())
	}
	for i := 0; i < want.Rows(); i++ {
		wc, wv := want.Row(i)
		gc, gv := got.Row(i)
		if len(wc) != len(gc) {
			t.Fatalf("%s: row %d: want %d candidates, got %d", label, i, len(wc), len(gc))
		}
		for x := range wc {
			if wc[x] != gc[x] || wv[x] != gv[x] {
				t.Fatalf("%s: row %d cand %d: want (%d,%v), got (%d,%v)",
					label, i, x, wc[x], wv[x], gc[x], gv[x])
			}
		}
	}
}

func newTestSource(t *testing.T, src, tgt *matrix.Dense, cfg Config) (*Source, *sim.Stream) {
	t.Helper()
	st, err := sim.NewStream(src, tgt, sim.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	ps, pt := st.PreparedTables()
	s, err := NewSource(st, ps, pt, sim.Cosine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

// TestShardsOneBitIdentical pins the Shards=1 contract: the sharded
// producer's forward graph, reverse graph and column means are bit-identical
// to the exhaustive builders' for every production shape.
func TestShardsOneBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := clusteredTable(rng, 83, 12, 4)
	tgt := clusteredTable(rng, 71, 12, 4)
	s, st := newTestSource(t, src, tgt, Config{Shards: 1})
	ctx := context.Background()
	const c, cRev, kCol = 7, 5, 3

	wantFwd, wantRev, err := matrix.BuildCandGraphs(ctx, st, c, cRev)
	if err != nil {
		t.Fatal(err)
	}
	gotFwd, gotRev, err := matrix.BuildCandGraphs(ctx, s, c, cRev)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, wantFwd, gotFwd, "fwd")
	graphsEqual(t, wantRev, gotRev, "rev")

	if _, rev0, err := matrix.BuildCandGraphs(ctx, s, c, 0); err != nil {
		t.Fatal(err)
	} else if rev0 != nil {
		t.Fatal("cRev=0 must return a nil reverse graph")
	}
	onlyFwd, err := matrix.BuildCandGraph(ctx, s, c)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, wantFwd, onlyFwd, "fwd-only")

	wantFwdM, wantMeans, err := matrix.BuildCandGraphWithColMeans(ctx, st, c, kCol)
	if err != nil {
		t.Fatal(err)
	}
	gotFwdM, gotMeans, err := matrix.BuildCandGraphWithColMeans(ctx, s, c, kCol)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, wantFwdM, gotFwdM, "fwd-means")
	if len(wantMeans) != len(gotMeans) {
		t.Fatalf("means length: want %d, got %d", len(wantMeans), len(gotMeans))
	}
	for i := range wantMeans {
		if wantMeans[i] != gotMeans[i] {
			t.Fatalf("means[%d]: want %v, got %v (must be bit-identical)", i, wantMeans[i], gotMeans[i])
		}
	}
}

// TestShardedGraphContract checks the Shards>1 output: a valid CSR graph
// whose every edge carries the exact exhaustive score for its (row, col)
// pair, and whose row heads achieve high top-1 agreement with the
// exhaustive graph on clustered data.
func TestShardedGraphContract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := clusteredTable(rng, 160, 16, 5)
	tgt := clusteredTable(rng, 140, 16, 5)
	s, st := newTestSource(t, src, tgt, Config{Shards: 5, Seed: 3})
	ctx := context.Background()
	const c = 6

	exact, err := matrix.BuildCandGraph(ctx, st, c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := matrix.BuildCandGraph(ctx, s, c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != src.Rows() || got.Cols() != tgt.Rows() {
		t.Fatalf("graph shape %dx%d, want %dx%d", got.Rows(), got.Cols(), src.Rows(), tgt.Rows())
	}
	ps, pt := st.PreparedTables()
	agree := 0
	for i := 0; i < got.Rows(); i++ {
		cols, vals := got.Row(i)
		if len(cols) == 0 {
			t.Fatalf("row %d has no candidates despite replication", i)
		}
		if len(cols) > c {
			t.Fatalf("row %d has %d candidates, budget %d", i, len(cols), c)
		}
		for x := range cols {
			want := matrix.Dot4(ps.Row(i), pt.Row(int(cols[x])))
			if vals[x] != want {
				t.Fatalf("row %d cand %d: score %v, exhaustive kernel gives %v", i, x, vals[x], want)
			}
		}
		ec, _ := exact.Row(i)
		if cols[0] == ec[0] {
			agree++
		}
	}
	if frac := float64(agree) / float64(got.Rows()); frac < 0.9 {
		t.Fatalf("top-1 agreement with exhaustive graph %.2f < 0.90 on clustered data", frac)
	}

	// Determinism: an identically configured source reproduces the graph.
	s2, _ := newTestSource(t, src, tgt, Config{Shards: 5, Seed: 3})
	got2, err := matrix.BuildCandGraph(ctx, s2, c)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, got, got2, "rebuild")
}

// TestPartitionShape checks the assignment invariants: targets partition,
// sources replicate, lists ascend.
func TestPartitionShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := clusteredTable(rng, 120, 8, 4)
	tgt := clusteredTable(rng, 130, 8, 4)
	asg, err := Partition(context.Background(), src, tgt, Config{Shards: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	seenTgt := make(map[int]int)
	for sIdx, ids := range asg.Tgt {
		for x, id := range ids {
			if x > 0 && ids[x-1] >= id {
				t.Fatalf("tgt shard %d not strictly ascending at %d", sIdx, x)
			}
			seenTgt[id]++
		}
	}
	if len(seenTgt) != tgt.Rows() {
		t.Fatalf("targets covered %d times, want %d (a partition)", len(seenTgt), tgt.Rows())
	}
	for id, n := range seenTgt {
		if n != 1 {
			t.Fatalf("target %d owned by %d shards", id, n)
		}
	}
	seenSrc := make(map[int]int)
	for sIdx, ids := range asg.Src {
		for x, id := range ids {
			if x > 0 && ids[x-1] >= id {
				t.Fatalf("src shard %d not strictly ascending at %d", sIdx, x)
			}
			seenSrc[id]++
		}
	}
	if len(seenSrc) != src.Rows() {
		t.Fatalf("sources covered %d, want %d", len(seenSrc), src.Rows())
	}
	for id, n := range seenSrc {
		if n != 2 {
			t.Fatalf("source %d replicated %d times, want 2", id, n)
		}
	}
}

// TestConfigErrors pins the typed validation errors.
func TestConfigErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := clusteredTable(rng, 10, 4, 2)
	tgt := clusteredTable(rng, 10, 4, 2)
	if _, err := Partition(context.Background(), src, tgt, Config{Shards: 0}); !errors.Is(err, ErrConfig) {
		t.Fatalf("Shards=0: got %v, want ErrConfig", err)
	}
	st, err := sim.NewStream(src, tgt, sim.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSource(nil, src, tgt, sim.Cosine, Config{Shards: 2}); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil inner: got %v, want ErrConfig", err)
	}
	other := clusteredTable(rng, 9, 4, 2)
	if _, err := NewSource(st, other, tgt, sim.Cosine, Config{Shards: 2}); !errors.Is(err, ErrConfig) {
		t.Fatalf("mismatched tables: got %v, want ErrConfig", err)
	}
}

// TestWorkerPoolCancellation drives the bounded pool under external
// cancellation from a racing goroutine — the shutdown path the -race CI leg
// exercises. The production must return the context error (or a graph, if
// it won the race) without panicking, deadlocking, or leaking workers. Two
// procs bound the pool at two sub-builds for six shards.
func TestWorkerPoolCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	src := clusteredTable(rng, 512, 24, 6)
	tgt := clusteredTable(rng, 512, 24, 6)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for trial := 0; trial < 8; trial++ {
		s, _ := newTestSource(t, src, tgt, Config{Shards: 6, Seed: int64(trial)})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Stagger the cancel across trials to hit partition, build and
			// merge phases.
			time.Sleep(time.Duration(trial) * 200 * time.Microsecond)
			cancel()
		}()
		g, err := matrix.BuildCandGraph(ctx, s, 4)
		<-done
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d: got %v, want context.Canceled or success", trial, err)
			}
		} else if g == nil || g.Rows() != src.Rows() {
			t.Fatalf("trial %d: nil/misshapen graph without error", trial)
		}
		cancel()
	}
}

// TestStreamPartsSubBuildsConcurrently runs every shard's StreamParts at
// once, from several productions at once: each sub-build's consumers fan
// their tile folds out on matrix's shared worker pool from their own
// goroutine, so the pool's queue overflows and chunks run inline on the
// submitters. The productions must all finish (submit never blocks) and
// return the graphs a one-worker production (one proc) returns.
func TestStreamPartsSubBuildsConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	src := clusteredTable(rng, 640, 24, 6)
	tgt := clusteredTable(rng, 640, 24, 6)
	req := matrix.GraphRequest{C: 8, CRev: 8, KCol: 2}
	serial, _ := newTestSource(t, src, tgt, Config{Shards: 6, Seed: 3})
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	want, err := serial.ProduceParts(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(6)
	s, _ := newTestSource(t, src, tgt, Config{Shards: 6, Seed: 3})
	const productions = 4
	type result struct {
		parts matrix.GraphParts
		err   error
	}
	results := make(chan result, productions)
	for p := 0; p < productions; p++ {
		go func() {
			parts, err := s.ProduceParts(context.Background(), req)
			results <- result{parts, err}
		}()
	}
	for p := 0; p < productions; p++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		graphsEqual(t, want.Fwd, r.parts.Fwd, "forward")
		graphsEqual(t, want.Rev, r.parts.Rev, "reverse")
		for j, v := range want.ColMeans {
			if r.parts.ColMeans[j] != v {
				t.Fatalf("column mean %d: want %v, got %v", j, v, r.parts.ColMeans[j])
			}
		}
	}
}
