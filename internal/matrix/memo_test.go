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
// Hun. (forward), SMat, Sink. At CSLS k = 2 they stream the source twice —
// once with two accumulators, once with the column heaps alone — and at
// k = 1 once, the means read off RInf's reverse graph. CSLS first still pays
// its own pass at k = 1 (no reverse graph to read), and in the Hun.-first
// order Hun. builds the forward graph alone and RInf adds only the reverse
// one.
func TestMemoBuildsOnlyMissingParts(t *testing.T) {
	ctx := context.Background()
	m := candTestMatrices()["tie-dense-8x10"]
	rinf := memoCall{kind: "both", c: 4, cRev: 4}
	csls := memoCall{kind: "means", c: 4, k: 2}
	csls1 := memoCall{kind: "means", c: 4, k: 1}
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
		{"rinf-csls1", []memoCall{rinf, csls1}, []int{2}, MemoStats{Builds: 1, Hits: 1, Passes: 1, Derived: 1}},
		{"rinf-first-k1", []memoCall{rinf, csls1, hun, smat, smat}, []int{2}, MemoStats{Builds: 1, Hits: 4, Passes: 1, Derived: 1}},
		{"csls1-rinf", []memoCall{csls1, rinf}, []int{2, 1}, MemoStats{Builds: 2, Passes: 2}},
		{"hun-first-k1", []memoCall{hun, rinf, smat, csls1, smat}, []int{1, 1}, MemoStats{Builds: 2, Hits: 3, Passes: 2, Derived: 1}},
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

// signedZeroMatrix has columns whose best score is -0.0, alone or tied with
// +0.0 at a later row: heapMean turns such a head into +0.0 (0 + -0.0), and so
// must the derivation.
func signedZeroMatrix() *Dense {
	nz := math.Copysign(0, -1)
	m, _ := NewFromData(4, 5, []float64{
		nz, 0, -1, nz, -0.5,
		0, nz, -1, nz, -0.5,
		-1, -1, nz, nz, -0.5,
		-2, -2, -2, -3, nz,
	})
	return m
}

// TestMemoDerivedMeansSameBits: k = 1 means read off a held reverse graph —
// whatever its budget, held from an earlier call or built by the same one —
// are bit for bit the un-memoized builder's, on the tie-heavy, -Inf, tiny
// and signed-zero matrices, and cost no tile pass.
func TestMemoDerivedMeansSameBits(t *testing.T) {
	ctx := context.Background()
	cases := candTestMatrices()
	cases["signed-zeros-4x5"] = signedZeroMatrix()
	for name, m := range cases {
		for _, shape := range candTileShapes {
			raw := &DenseTileSource{M: m, TileRows: shape[0], TileCols: shape[1]}
			_, want, err := BuildCandGraphWithColMeans(ctx, raw, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, cRev := range []int{1, 2, m.Rows(), m.Rows() + 3} {
				held := Memo(raw)
				if _, _, err := held.ProduceCandGraphs(ctx, 2, cRev); err != nil {
					t.Fatal(err)
				}
				_, got, err := held.ProduceCandGraphWithColMeans(ctx, 2, 1)
				if err != nil {
					t.Fatal(err)
				}
				if st := held.Stats(); !floatsEqual(want, got) || st.Derived != 1 || st.Hits != 1 || st.Passes != 1 {
					t.Fatalf("%s tiles %v cRev %d: means off a held reverse graph = %v, want %v (stats %+v)", name, shape, cRev, got, want, st)
				}
				same := Memo(raw)
				parts, err := same.ProduceParts(ctx, GraphRequest{C: 2, CRev: cRev, KCol: 1})
				if err != nil {
					t.Fatal(err)
				}
				if st := same.Stats(); !floatsEqual(want, parts.ColMeans) || st.Derived != 1 || st.Builds != 1 || st.Passes != 1 {
					t.Fatalf("%s tiles %v cRev %d: means off the same call's reverse graph = %v, want %v (stats %+v)", name, shape, cRev, parts.ColMeans, want, st)
				}
			}
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

// TestMemoDerivedMeansFollowSlotRules: derived means live in the means slot
// and follow its rules — counted in Bytes, replaced by a different kCol,
// dropped by Forget — and leave the reverse graph's slot alone: a different
// cRev still replaces the graph, and the means, which do not depend on it,
// stay an exact-key hit.
func TestMemoDerivedMeansFollowSlotRules(t *testing.T) {
	ctx := context.Background()
	m := candTestMatrices()["tie-dense-8x10"]
	raw := &DenseTileSource{M: m}
	memo := Memo(raw)
	means := func(k int) []float64 {
		t.Helper()
		_, want, err := BuildCandGraphWithColMeans(ctx, raw, 3, k)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := memo.ProduceCandGraphWithColMeans(ctx, 3, k)
		if err != nil {
			t.Fatal(err)
		}
		if !floatsEqual(want, got) {
			t.Fatalf("k=%d: memoized means %v, want %v", k, got, want)
		}
		return got
	}
	fwd, rev, err := memo.ProduceCandGraphs(ctx, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	derived := means(1)
	if st := memo.Stats(); st.Derived != 1 || st.Bytes != fwd.SizeBytes()+rev.SizeBytes()+int64(len(derived))*8 {
		t.Fatalf("after deriving: %+v, want the derived means counted in Bytes", st)
	}
	means(3) // replaces the slot with a built vector
	means(1) // derived again: the reverse graph is still held
	if st := memo.Stats(); st.Derived != 2 || st.Builds != 2 || st.Passes != 2 {
		t.Fatalf("after k = 1, 3, 1: %+v, want two derivations around one build", st)
	}
	if _, wider, err := memo.ProduceCandGraphs(ctx, 3, 5); err != nil || graphsEqual(wider, rev) {
		t.Fatalf("a different cRev did not replace the reverse graph (err %v)", err)
	}
	means(1)
	if st := memo.Stats(); st.Derived != 2 || st.Builds != 3 || st.Hits != 3 {
		t.Fatalf("after a reverse budget change: %+v, want the held means served as a hit", st)
	}
	memo.Forget()
	if got := memo.Stats().Bytes; got != 0 {
		t.Fatalf("memo holds %d bytes after Forget", got)
	}
	means(1) // nothing held: built by its own pass
	if st := memo.Stats(); st.Derived != 2 || st.Builds != 4 || st.Passes != 4 {
		t.Fatalf("after Forget: %+v, want the means built by a pass", st)
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
	// It says nothing about its reverse heads, so k = 1 means are asked of it
	// even with a reverse graph held.
	if _, _, err := memo.ProduceCandGraphWithColMeans(ctx, 4, 1); err != nil {
		t.Fatal(err)
	}
	if st := memo.Stats(); st.Derived != 0 || p.calls[len(p.calls)-1] != "means" || len(p.calls) != 4 {
		t.Fatalf("k = 1 means over a three-method producer: calls %v, stats %+v, want a fourth call and nothing derived", p.calls, st)
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
