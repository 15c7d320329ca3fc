package matrix

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// graphsEqual reports whether two candidate graphs hold the same edges with
// the same score bits in the same order (nil equals only nil).
func graphsEqual(a, b *CandGraph) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.rows != b.rows || a.cols != b.cols || !reflect.DeepEqual(a.rowPtr, b.rowPtr) || !reflect.DeepEqual(a.colIdx, b.colIdx) {
		return false
	}
	return floatsEqual(a.score, b.score)
}

// floatsEqual compares by bits, so -Inf rows and NaNs compare like any value.
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// memoCall is one of the three producer entry points with its budgets.
type memoCall struct {
	kind       string // "fwd", "both", "means"
	c, cRev, k int
}

// run answers the call from src through the public Build* dispatch.
func (mc memoCall) run(ctx context.Context, src TileSource) (GraphParts, error) {
	var out GraphParts
	var err error
	switch mc.kind {
	case "fwd":
		out.Fwd, err = BuildCandGraph(ctx, src, mc.c)
	case "both":
		out.Fwd, out.Rev, err = BuildCandGraphs(ctx, src, mc.c, mc.cRev)
	case "means":
		out.Fwd, out.ColMeans, err = BuildCandGraphWithColMeans(ctx, src, mc.c, mc.k)
	}
	return out, err
}

func partsEqual(a, b GraphParts) bool {
	return graphsEqual(a.Fwd, b.Fwd) && graphsEqual(a.Rev, b.Rev) && floatsEqual(a.ColMeans, b.ColMeans) &&
		(a.ColMeans == nil) == (b.ColMeans == nil)
}

// countingSource counts tile passes and the consumers each one carried.
type countingSource struct {
	TileSource
	consumers []int // per pass
}

func (s *countingSource) StreamTiles(ctx context.Context, consumers ...TileConsumer) error {
	s.consumers = append(s.consumers, len(consumers))
	return s.TileSource.StreamTiles(ctx, consumers...)
}

// TestMemoSameBitsAsUnmemoized: every sequence of producer calls — budget
// changes, over-wide budgets, kCol <= 0 and kCol past the row count included
// — gets from the memo exactly what the un-memoized builders return for the
// wrapped source, on the tie-heavy and degenerate matrices, twice in a row.
func TestMemoSameBitsAsUnmemoized(t *testing.T) {
	ctx := context.Background()
	calls := []memoCall{
		{kind: "both", c: 3, cRev: 3}, {kind: "means", c: 3, k: 2}, {kind: "both", c: 3}, {kind: "fwd", c: 3},
		{kind: "fwd", c: 2}, {kind: "both", c: 2, cRev: 4}, {kind: "means", c: 2, k: 0}, {kind: "means", c: 100, k: 100},
		{kind: "both", c: 100, cRev: 100}, {kind: "means", c: 1, k: 1}, {kind: "both", c: 3, cRev: 3},
	}
	for name, m := range candTestMatrices() {
		for _, shape := range candTileShapes {
			raw := &DenseTileSource{M: m, TileRows: shape[0], TileCols: shape[1]}
			memo := Memo(raw)
			for round := 0; round < 2; round++ {
				for i, mc := range calls {
					want, err := mc.run(ctx, raw)
					if err != nil {
						t.Fatalf("%s: un-memoized call %d: %v", name, i, err)
					}
					got, err := mc.run(ctx, memo)
					if err != nil {
						t.Fatalf("%s: memoized call %d: %v", name, i, err)
					}
					if !partsEqual(want, got) {
						t.Fatalf("%s tiles %v round %d call %d (%+v): memoized parts differ from the un-memoized build", name, shape, round, i, mc)
					}
				}
			}
		}
	}
}

// TestMemoBuildsOnlyMissingParts pins the pass accounting of the matcher
// sequence the issue names: RInf (forward+reverse), CSLS (forward+means),
// Hun. (forward), SMat, Sink. stream the source twice — once with two
// accumulators, once with the column heaps alone — and in the other order
// Hun. builds the forward graph alone and RInf adds only the reverse one.
func TestMemoBuildsOnlyMissingParts(t *testing.T) {
	ctx := context.Background()
	m := candTestMatrices()["tie-dense-8x10"]
	rinf := memoCall{kind: "both", c: 4, cRev: 4}
	csls := memoCall{kind: "means", c: 4, k: 2}
	hun := memoCall{kind: "both", c: 4}
	smat := memoCall{kind: "fwd", c: 4}
	for _, tc := range []struct {
		name      string
		calls     []memoCall
		consumers []int
		stats     MemoStats
	}{
		{"rinf-first", []memoCall{rinf, csls, hun, smat, smat}, []int{2, 1}, MemoStats{Builds: 2, Hits: 3, Passes: 2}},
		{"hun-first", []memoCall{hun, rinf, smat, csls, smat}, []int{1, 1, 1}, MemoStats{Builds: 3, Hits: 2, Passes: 3}},
	} {
		src := &countingSource{TileSource: &DenseTileSource{M: m}}
		memo := Memo(src)
		for _, mc := range tc.calls {
			if _, err := mc.run(ctx, memo); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if !reflect.DeepEqual(src.consumers, tc.consumers) {
			t.Errorf("%s: consumers per pass = %v, want %v", tc.name, src.consumers, tc.consumers)
		}
		got := memo.Stats()
		if got.Bytes == 0 {
			t.Errorf("%s: memo reports no bytes held", tc.name)
		}
		got.Bytes = 0
		if got != tc.stats {
			t.Errorf("%s: stats = %+v, want %+v", tc.name, got, tc.stats)
		}
	}
}

// TestMemoBudgetChangeReplaces: a different budget replaces its slot, so the
// memo never holds more than one forward graph, one reverse graph and one
// means vector, and Forget empties it.
func TestMemoBudgetChangeReplaces(t *testing.T) {
	ctx := context.Background()
	m := candTestMatrices()["tie-dense-8x10"]
	memo := Memo(&DenseTileSource{M: m})
	for _, c := range []int{2, 5, 3, 100, 1} {
		fwd, rev, err := memo.ProduceCandGraphs(ctx, c, c)
		if err != nil {
			t.Fatal(err)
		}
		_, means, err := memo.ProduceCandGraphWithColMeans(ctx, c, c)
		if err != nil {
			t.Fatal(err)
		}
		want := fwd.SizeBytes() + rev.SizeBytes() + int64(len(means))*8
		if got := memo.Stats().Bytes; got != want {
			t.Fatalf("c=%d: memo holds %d bytes, want exactly the current parts' %d", c, got, want)
		}
	}
	memo.Forget()
	if got := memo.Stats().Bytes; got != 0 {
		t.Fatalf("memo holds %d bytes after Forget", got)
	}
	before := memo.Stats().Builds
	if _, err := memo.ProduceCandGraph(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if memo.Stats().Builds != before+1 {
		t.Fatal("a call after Forget was not a build")
	}
}

// gatedSource blocks every tile pass until release is closed or the pass's
// context ends, and reports each pass that has started.
type gatedSource struct {
	TileSource
	started chan struct{}
	release chan struct{}
}

func (s *gatedSource) StreamTiles(ctx context.Context, consumers ...TileConsumer) error {
	s.started <- struct{}{}
	select {
	case <-s.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	return s.TileSource.StreamTiles(ctx, consumers...)
}

// TestMemoCancelledBuildCachesNothing: a build cancelled mid-pass leaves the
// memo empty and the next call builds; a caller whose context expires while
// it waits behind a build returns its own error without waiting for it.
func TestMemoCancelledBuildCachesNothing(t *testing.T) {
	m := candTestMatrices()["random-9x7"]
	raw := &DenseTileSource{M: m}
	src := &gatedSource{TileSource: raw, started: make(chan struct{}, 4), release: make(chan struct{})}
	memo := Memo(src)

	bctx, cancelBuild := context.WithCancel(context.Background())
	built := make(chan error, 1)
	go func() {
		_, err := memo.ProduceCandGraph(bctx, 3)
		built <- err
	}()
	<-src.started // the build holds the memo and is mid-pass

	wctx, cancelWait := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancelWait()
	if _, err := memo.ProduceCandGraph(wctx, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter behind a build returned %v, want its own deadline error", err)
	}
	select {
	case err := <-built:
		t.Fatalf("the build ended (%v) before it was cancelled", err)
	default:
	}

	cancelBuild()
	if err := <-built; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v", err)
	}
	if st := memo.Stats(); st.Builds != 0 || st.Bytes != 0 {
		t.Fatalf("cancelled build left %+v in the memo", st)
	}

	close(src.release)
	got, err := memo.ProduceCandGraph(context.Background(), 3)
	if err != nil {
		t.Fatalf("call after a cancelled build: %v", err)
	}
	want, err := BuildCandGraph(context.Background(), raw, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(want, got) || memo.Stats().Builds != 1 {
		t.Fatalf("call after a cancelled build: wrong graph or stats %+v", memo.Stats())
	}
}

// TestMemoConcurrentCallers races mixed producer calls on one memo; every
// answer must be the un-memoized one. Run under -race.
func TestMemoConcurrentCallers(t *testing.T) {
	ctx := context.Background()
	m := candTestMatrices()["tie-dense-8x10"]
	raw := &DenseTileSource{M: m, TileRows: 3, TileCols: 4}
	calls := []memoCall{
		{kind: "both", c: 4, cRev: 4}, {kind: "means", c: 4, k: 2}, {kind: "both", c: 4}, {kind: "fwd", c: 4}, {kind: "fwd", c: 2},
	}
	want := make([]GraphParts, len(calls))
	for i, mc := range calls {
		var err error
		if want[i], err = mc.run(ctx, raw); err != nil {
			t.Fatal(err)
		}
	}
	memo := Memo(raw)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				i := (g + n) % len(calls)
				got, err := calls[i].run(ctx, memo)
				if err != nil {
					t.Errorf("goroutine %d call %d: %v", g, i, err)
					return
				}
				if !partsEqual(want[i], got) {
					t.Errorf("goroutine %d call %d: memoized parts differ from the un-memoized build", g, i)
					return
				}
				if n%7 == 0 {
					memo.Forget()
				}
			}
		}(g)
	}
	wg.Wait()
}

// threeMethodProducer exposes only the CandGraphProducer surface, as a
// producer written outside this repository would.
type threeMethodProducer struct {
	TileSource
	calls []string
}

func (p *threeMethodProducer) ProduceCandGraph(ctx context.Context, c int) (*CandGraph, error) {
	p.calls = append(p.calls, "fwd")
	return PartsCandGraph(ctx, exhaustive{p.TileSource}, c)
}

func (p *threeMethodProducer) ProduceCandGraphs(ctx context.Context, c, cRev int) (*CandGraph, *CandGraph, error) {
	p.calls = append(p.calls, "both")
	return PartsCandGraphs(ctx, exhaustive{p.TileSource}, c, cRev)
}

func (p *threeMethodProducer) ProduceCandGraphWithColMeans(ctx context.Context, c, kCol int) (*CandGraph, []float64, error) {
	p.calls = append(p.calls, "means")
	return PartsCandGraphWithColMeans(ctx, exhaustive{p.TileSource}, c, kCol)
}

// TestMemoOverThreeMethodProducer: a producer without a parts entry point is
// memoized through the smallest of its calls that covers the missing parts.
func TestMemoOverThreeMethodProducer(t *testing.T) {
	ctx := context.Background()
	m := candTestMatrices()["tie-dense-8x10"]
	raw := &DenseTileSource{M: m}
	p := &threeMethodProducer{TileSource: raw}
	memo := Memo(p)
	calls := []memoCall{
		{kind: "fwd", c: 4}, {kind: "both", c: 4, cRev: 3}, {kind: "means", c: 4, k: 2}, {kind: "both", c: 4, cRev: 3}, {kind: "fwd", c: 4},
	}
	for i, mc := range calls {
		want, err := mc.run(ctx, raw)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mc.run(ctx, memo)
		if err != nil {
			t.Fatal(err)
		}
		if !partsEqual(want, got) {
			t.Fatalf("call %d: memoized parts differ", i)
		}
	}
	if want := []string{"fwd", "both", "means"}; !reflect.DeepEqual(p.calls, want) {
		t.Fatalf("producer saw calls %v, want %v", p.calls, want)
	}
	all, err := memo.ProduceParts(ctx, GraphRequest{C: 2, CRev: 2, KCol: 1})
	if err != nil || all.Fwd == nil || all.Rev == nil || all.ColMeans == nil {
		t.Fatalf("three-part request over a three-method producer: %+v, %v", all, err)
	}
}

// TestMemoPaddedViewBypasses: a dummy-padded view is a different score
// matrix; it is built on the wrapped source and never touches the memo.
func TestMemoPaddedViewBypasses(t *testing.T) {
	ctx := context.Background()
	m := candTestMatrices()["random-9x7"]
	memo := Memo(&DenseTileSource{M: m})
	padded := PadCols(memo, 2, 0.5)
	if _, ok := padded.(CandGraphProducer); ok {
		t.Fatal("the padded view of a memo is itself a producer")
	}
	if _, cols := padded.Dims(); cols != 9 {
		t.Fatalf("padded view has %d columns, want 9", cols)
	}
	if _, err := BuildCandGraph(ctx, padded, 3); err != nil {
		t.Fatal(err)
	}
	if st := memo.Stats(); st != (MemoStats{}) {
		t.Fatalf("a padded build moved the memo's counters: %+v", st)
	}
}
