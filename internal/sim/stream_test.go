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
		copy(c.dst.Row(rowOff + r)[colOff:colOff+tile.Cols()], tile.Row(r))
	}
}

// TestStreamWithDummies: a stream padded by matrix.PadCols streams its real
// scores followed by the dummy columns.
func TestStreamWithDummies(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	src := randEmb(rng, 20, 8)
	tgt := randEmb(rng, 13, 8)
	st, err := NewStream(src, tgt, Euclidean, WithTileShape(6, 5))
	if err != nil {
		t.Fatal(err)
	}
	const nd, score = 7, -0.5
	padded := matrix.PadCols(st, nd, score)
	if r, c := padded.Dims(); r != 20 || c != 20 {
		t.Fatalf("padded dims %d×%d, want 20×20", r, c)
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
		if got := st.MatrixBytes(); got != 15*11*8 {
			t.Fatalf("MatrixBytes = %d, want %d", got, 15*11*8)
		}
		padded := matrix.PadCols(st, 4, 2.5)
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
// matrix.candgraph_s / sim.stream_s. The scan leg also reports GFLOP/s, two
// flops per multiply-add, for comparison with the core's FMA peak (DESIGN §17).
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
				b.ReportMetric(2*float64(n)*float64(n)*float64(d)/ns, "GFLOP/s")
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
