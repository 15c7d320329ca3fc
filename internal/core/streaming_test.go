package core

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"entmatcher/internal/matrix"
	"entmatcher/internal/sim"
)

// Golden equivalence tests: every streaming matcher must produce the same
// pairs — same targets, same abstentions, same tie-breaking — as its dense
// counterpart on the same embeddings. For the distance metrics the scalar
// kernels are shared and scores must match bit-for-bit; for cosine the
// streaming kernel's unrolled summation may differ in the last ulps, so
// scores are compared with a tight tolerance while selections stay exact.

func randEmbeddings(rng *rand.Rand, rows, d int) *matrix.Dense {
	m := matrix.New(rows, d)
	data := m.Data()
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return m
}

// engines builds a dense and a streaming context over the same embeddings.
// Small odd tile shapes force many partial tiles.
func engines(t *testing.T, src, tgt *matrix.Dense, metric sim.Metric) (dense, stream *Context) {
	t.Helper()
	s, err := sim.Matrix(src, tgt, metric)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.NewStream(src, tgt, metric, sim.WithTileShape(7, 9))
	if err != nil {
		t.Fatal(err)
	}
	return &Context{S: s}, &Context{Stream: st}
}

func requireSameResult(t *testing.T, metric sim.Metric, want, got *Result) {
	t.Helper()
	scoreTol := 0.0
	if metric == sim.Cosine {
		scoreTol = 1e-9
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%d streamed pairs vs %d dense pairs", len(got.Pairs), len(want.Pairs))
	}
	for i := range want.Pairs {
		w, g := want.Pairs[i], got.Pairs[i]
		if g.Source != w.Source || g.Target != w.Target {
			t.Fatalf("pair %d: streamed (%d→%d) vs dense (%d→%d)", i, g.Source, g.Target, w.Source, w.Target)
		}
		if math.Abs(g.Score-w.Score) > scoreTol {
			t.Fatalf("pair %d (%d→%d): streamed score %v vs dense %v", i, g.Source, g.Target, g.Score, w.Score)
		}
	}
	if len(got.Abstained) != len(want.Abstained) {
		t.Fatalf("%d streamed abstentions vs %d dense", len(got.Abstained), len(want.Abstained))
	}
	for i := range want.Abstained {
		if got.Abstained[i] != want.Abstained[i] {
			t.Fatalf("abstained[%d]: streamed %d vs dense %d", i, got.Abstained[i], want.Abstained[i])
		}
	}
}

func TestDInfStreamMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, metric := range []sim.Metric{sim.Cosine, sim.Euclidean, sim.Manhattan} {
		for _, shape := range [][2]int{{37, 53}, {64, 31}, {50, 50}} {
			src := randEmbeddings(rng, shape[0], 16)
			tgt := randEmbeddings(rng, shape[1], 16)
			dctx, sctx := engines(t, src, tgt, metric)
			want, err := NewDInf().Match(dctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewDInfStream().Match(sctx)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, metric, want, got)
			if got.Matcher != want.Matcher {
				t.Fatalf("matcher name %q vs %q", got.Matcher, want.Matcher)
			}
		}
	}
}

func TestCSLSStreamMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, metric := range []sim.Metric{sim.Cosine, sim.Euclidean} {
		for _, k := range []int{1, 3, 10} {
			src := randEmbeddings(rng, 41, 16)
			tgt := randEmbeddings(rng, 29, 16)
			dctx, sctx := engines(t, src, tgt, metric)
			want, err := NewCSLS(k).Match(dctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewCSLSStream(k).Match(sctx)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, metric, want, got)
		}
	}
}

func TestSinkhornBlockedStreamMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, metric := range []sim.Metric{sim.Euclidean, sim.Manhattan} {
		src := randEmbeddings(rng, 45, 16)
		tgt := randEmbeddings(rng, 38, 16)
		dctx, sctx := engines(t, src, tgt, metric)
		m := NewSinkhornBlocked(7, 20)
		want, err := m.Match(dctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Match(sctx)
		if err != nil {
			t.Fatal(err)
		}
		// Distance kernels are shared, so the mini-batches are bit-identical
		// and the Sinkhorn outputs must be too.
		requireSameResult(t, metric, want, got)
	}
}

// TestStreamingDummiesMatchDense exercises the unmatchable-entity path:
// rows exceed columns, WithDummies pads both engines, and pairs plus
// abstentions must agree.
func TestStreamingDummiesMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, metric := range []sim.Metric{sim.Cosine, sim.Euclidean} {
		src := randEmbeddings(rng, 48, 16)
		tgt := randEmbeddings(rng, 31, 16)
		dctx, sctx := engines(t, src, tgt, metric)
		// Scores chosen to land inside each metric's row-max distribution so
		// some rows abstain and some match.
		score := 0.45
		if metric == sim.Euclidean {
			score = -4.6
		}
		dPad := WithDummies(dctx, score)
		sPad := WithDummies(sctx, score)
		if dPad.NumDummies != 17 || sPad.NumDummies != 17 {
			t.Fatalf("dummies: dense %d stream %d, want 17", dPad.NumDummies, sPad.NumDummies)
		}
		want, err := NewDInf().Match(dPad)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewDInfStream().Match(sPad)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, metric, want, got)
		if len(want.Abstained) == 0 || len(want.Pairs) == 0 {
			t.Fatalf("%v: test is vacuous (%d pairs, %d abstained); tune the dummy score",
				metric, len(want.Pairs), len(want.Abstained))
		}

		wantC, err := NewCSLS(1).Match(dPad)
		if err != nil {
			t.Fatal(err)
		}
		gotC, err := NewCSLSStream(1).Match(sPad)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, metric, wantC, gotC)
	}
}

// TestStreamingTieBreaking plants exact ties (duplicated target rows under a
// distance metric) and requires both engines to keep the first occurrence.
func TestStreamingTieBreaking(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	src := randEmbeddings(rng, 12, 8)
	tgt := matrix.New(9, 8)
	for j := 0; j < 9; j += 3 {
		row := randEmbeddings(rng, 1, 8)
		for dup := 0; dup < 3 && j+dup < 9; dup++ {
			copy(tgt.Row(j+dup), row.Row(0))
		}
	}
	dctx, sctx := engines(t, src, tgt, sim.Euclidean)
	want, err := NewDInf().Match(dctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewDInfStream().Match(sctx)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, sim.Euclidean, want, got)
	for _, p := range got.Pairs {
		if p.Target%3 != 0 {
			t.Fatalf("row %d matched duplicate column %d instead of its first occurrence", p.Source, p.Target)
		}
	}
}

// TestStreamingMatchersOnDenseContext checks the degenerate direction: a
// streaming matcher on a dense context re-slices the matrix into tiles and
// must agree with the dense matcher bit-for-bit (identical scores — both
// read the same matrix).
func TestStreamingMatchersOnDenseContext(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	src := randEmbeddings(rng, 33, 16)
	tgt := randEmbeddings(rng, 27, 16)
	dctx, _ := engines(t, src, tgt, sim.Cosine)
	want, err := NewDInf().Match(dctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewDInfStream().Match(dctx)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, sim.Euclidean, want, got) // zero tolerance: same matrix
}

func TestStreamingContextValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	src := randEmbeddings(rng, 8, 8)
	tgt := randEmbeddings(rng, 8, 8)
	st, err := sim.NewStream(src, tgt, sim.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	sctx := &Context{Stream: st}
	if err := ValidateContext(sctx); err != nil {
		t.Fatalf("streaming context rejected: %v", err)
	}
	// Dense-only matchers cannot run a streaming context.
	if _, err := NewHungarian().Match(sctx); err == nil {
		t.Fatal("dense matcher accepted a streaming context")
	}
	// Streaming matchers need some engine.
	if _, err := NewDInfStream().Match(&Context{}); err == nil {
		t.Fatal("streaming matcher accepted an empty context")
	}
	if _, err := NewCSLSStream(0).Match(sctx); err == nil {
		t.Fatal("CSLSStream accepted K=0")
	}
}

// TestCSLSStreamConsumersReleaseBacking pins the pooled heap backing of
// streamed CSLS: pass one's accumulators hold (rows+cols)·K·16 bytes, and
// Match must hand them back, so a second Match on the same context allocates
// only its results — far less than one backing.
func TestCSLSStreamConsumersReleaseBacking(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pools
	// sync.Pool caches per P and Match blocks on pool chunks, so with several
	// Ps a Put can land where the next Get does not look; one P makes the
	// round trip exact (testing.AllocsPerRun pins the same way).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, k = 512, 64
	rng := rand.New(rand.NewSource(14))
	st, err := sim.NewStream(randEmbeddings(rng, n, 8), randEmbeddings(rng, n, 8), sim.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	ctx, m := &Context{Stream: st}, NewCSLSStream(k)
	if _, err := m.Match(ctx); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := m.Match(ctx); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const backing = 2 * n * k * 16
	if got := after.TotalAlloc - before.TotalAlloc; got > backing/2 {
		t.Fatalf("second Match allocated %d bytes; the accumulators' backing (%d bytes) did not come from the pool", got, backing)
	}
}
