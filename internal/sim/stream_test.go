package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"entmatcher/internal/matrix"
)

// collector assembles streamed tiles back into a dense matrix.
type collector struct{ dst *matrix.Dense }

func (c *collector) ConsumeTile(rowOff, colOff int, tile *matrix.Dense) {
	for r := 0; r < tile.Rows(); r++ {
		copy(c.dst.Row(rowOff+r)[colOff:colOff+tile.Cols()], tile.Row(r))
	}
}

// TestStreamMatchesMatrix reassembles the full matrix from the tile stream
// and compares it to the one-shot dense kernel: bit-identical for the
// distance metrics (shared scalar kernels), within a tight tolerance for
// cosine (the streaming kernel sums the dot product in a different, unrolled
// order).
func TestStreamMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, metric := range []Metric{Cosine, Euclidean, Manhattan} {
		for _, shape := range [][2]int{{37, 53}, {64, 31}, {5, 5}} {
			src := randEmb(rng, shape[0], 16)
			tgt := randEmb(rng, shape[1], 16)
			want, err := Matrix(src, tgt, metric)
			if err != nil {
				t.Fatal(err)
			}
			st, err := NewStream(src, tgt, metric, WithTileShape(7, 9))
			if err != nil {
				t.Fatal(err)
			}
			got := matrix.New(shape[0], shape[1])
			if err := st.StreamTiles(context.Background(), &collector{dst: got}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < shape[0]; i++ {
				for j := 0; j < shape[1]; j++ {
					g, w := got.At(i, j), want.At(i, j)
					switch metric {
					case Euclidean, Manhattan:
						if g != w {
							t.Fatalf("%v (%d,%d): streamed %v != dense %v (must be bit-identical)", metric, i, j, g, w)
						}
					default:
						if math.Abs(g-w) > 1e-12 {
							t.Fatalf("%v (%d,%d): streamed %v vs dense %v", metric, i, j, g, w)
						}
					}
				}
			}
		}
	}
}

func TestStreamWithDummies(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	src := randEmb(rng, 20, 8)
	tgt := randEmb(rng, 13, 8)
	st, err := NewStream(src, tgt, Euclidean, WithTileShape(6, 5))
	if err != nil {
		t.Fatal(err)
	}
	const nd, score = 7, -0.5
	padded := st.WithDummies(nd, score)
	if r, c := padded.Dims(); r != 20 || c != 20 {
		t.Fatalf("padded dims %d×%d, want 20×20", r, c)
	}
	if padded.RealCols() != 13 {
		t.Fatalf("RealCols = %d, want 13", padded.RealCols())
	}
	got := matrix.New(20, 20)
	if err := padded.StreamTiles(context.Background(), &collector{dst: got}); err != nil {
		t.Fatal(err)
	}
	want, _ := Matrix(src, tgt, Euclidean)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			w := score
			if j < 13 {
				w = want.At(i, j)
			}
			if got.At(i, j) != w {
				t.Fatalf("(%d,%d): got %v want %v", i, j, got.At(i, j), w)
			}
		}
	}
}

func TestStreamBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	src := randEmb(rng, 15, 8)
	tgt := randEmb(rng, 11, 8)
	for _, metric := range []Metric{Cosine, Euclidean, Manhattan} {
		st, err := NewStream(src, tgt, metric)
		if err != nil {
			t.Fatal(err)
		}
		padded := st.WithDummies(4, 2.5)
		rowIDs := []int{3, 0, 14}
		colIDs := []int{10, 12, 1, 14} // 12 and 14 are dummy columns
		got, err := padded.Block(context.Background(), rowIDs, colIDs)
		if err != nil {
			t.Fatal(err)
		}
		want := matrix.New(15, 11)
		if err := st.StreamTiles(context.Background(), &collector{dst: want}); err != nil {
			t.Fatal(err)
		}
		for x, i := range rowIDs {
			for y, j := range colIDs {
				w := 2.5
				if j < 11 {
					w = want.At(i, j)
				}
				if got.At(x, y) != w {
					t.Fatalf("%v block (%d,%d): got %v want %v", metric, x, y, got.At(x, y), w)
				}
			}
		}
		if _, err := padded.Block(context.Background(), []int{15}, colIDs); err == nil {
			t.Fatal("out-of-range row accepted")
		}
		if _, err := padded.Block(context.Background(), rowIDs, []int{15}); err == nil {
			t.Fatal("out-of-range column accepted")
		}
	}
}

func TestStreamValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	good := randEmb(rng, 4, 8)
	if _, err := NewStream(nil, good, Cosine); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := NewStream(good, randEmb(rng, 4, 5), Cosine); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := NewStream(good, matrix.New(0, 8), Cosine); err == nil {
		t.Fatal("empty target accepted")
	}
	bad := randEmb(rng, 4, 8)
	bad.Set(2, 3, math.NaN())
	if _, err := NewStream(good, bad, Cosine); err == nil {
		t.Fatal("non-finite target accepted")
	}
	if _, err := NewStream(good, good, Metric(99)); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestStreamCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	src := randEmb(rng, 64, 8)
	tgt := randEmb(rng, 64, 8)
	st, err := NewStream(src, tgt, Cosine, WithTileShape(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := st.StreamTiles(ctx, matrix.NewRunningArgmax(64)); err != context.Canceled {
		t.Fatalf("StreamTiles under canceled ctx: %v", err)
	}
	if _, err := st.Block(ctx, []int{0}, []int{0}); err != context.Canceled {
		t.Fatalf("Block under canceled ctx: %v", err)
	}
}

// noopConsumer is the bare tile pass: what a scan costs with no selection.
type noopConsumer struct{}

func (noopConsumer) ConsumeTile(int, int, *matrix.Dense) {}

// BenchmarkStreamParts measures candidate selection against the scan it
// follows, at the sparse_exact workload's shape (5600x5600, d=128, C=64;
// -short shrinks the tables): `scan` is one bare tile pass, the others one
// StreamParts pass each. Every leg reports Mpair/s; the selecting legs also
// report x-scan, their time over the scan leg's (when that ran first, as it
// does unfiltered) — the select-over-scan ratio benchmark/README.md reads as
// matrix.candgraph_s / sim.stream_s.
//
//	go test -run '^$' -bench StreamParts -benchtime 5x ./internal/sim
func BenchmarkStreamParts(b *testing.B) {
	n, d, c := 5600, 128, 64
	if testing.Short() {
		n, d, c = 1400, 32, 16
	}
	rng := rand.New(rand.NewSource(14))
	st, err := NewStream(randEmb(rng, n, d), randEmb(rng, n, d), Cosine)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var scanNS float64
	leg := func(name string, pass func() error) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := pass(); err != nil {
					b.Fatal(err)
				}
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(float64(n)*float64(n)/ns*1e3, "Mpair/s")
			if name == "scan" {
				scanNS = ns
			} else if scanNS > 0 {
				b.ReportMetric(ns/scanNS, "x-scan")
			}
		})
	}
	parts := func(req matrix.GraphRequest) func() error {
		return func() error {
			_, err := matrix.StreamParts(ctx, st, req)
			return err
		}
	}
	leg("scan", func() error { return st.StreamTiles(ctx, noopConsumer{}) })
	leg("fwd", parts(matrix.GraphRequest{C: c}))
	leg("fwd+rev", parts(matrix.GraphRequest{C: c, CRev: c}))
	leg("means", parts(matrix.GraphRequest{C: c, KCol: 1}))
}
