package matrix

import (
	"context"
	"errors"
	"fmt"
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
// sequence RInf (forward+reverse), CSLS (forward+means), Hun. (forward),
// SMat, Sink. At CSLS k = 2 they stream the source twice — once with two
// accumulators, once with the column heaps alone — and at k = 1 once, the
// means returned with RInf's reverse graph (its row heads; no accumulator of
// their own). Every reverse build made while no means are held returns them,
// so each order counts one derived part. CSLS first still pays its own pass
// at k = 1 (no reverse build to ride), and in the Hun.-first order Hun.
// builds the forward graph alone and RInf adds only the reverse one.
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
		{"rinf-first", []memoCall{rinf, csls, hun, smat, smat}, []int{2, 1}, MemoStats{Builds: 2, Hits: 3, Passes: 2, Derived: 1}},
		{"hun-first", []memoCall{hun, rinf, smat, csls, smat}, []int{1, 1, 1}, MemoStats{Builds: 3, Hits: 2, Passes: 3, Derived: 1}},
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

// TestMemoDerivedMeansSameBits: k = 1 means returned with a reverse build —
// whatever its budget, asked for by a later call or by the same one — are
// bit for bit the un-memoized builder's, on the tie-heavy, -Inf, tiny and
// signed-zero matrices, and cost no tile pass of their own.
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
					t.Fatalf("%s tiles %v cRev %d: means after a reverse build = %v, want %v (stats %+v)", name, shape, cRev, got, want, st)
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
// dropped by Forget — and are never read off a held reverse graph later:
// k = 1 after k = 3 is a build. A different cRev still replaces the graph,
// and the means, which do not depend on it, stay an exact-key hit.
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
	means(1) // built again: the held reverse graph is not read
	if st := memo.Stats(); st.Derived != 1 || st.Builds != 3 || st.Passes != 3 {
		t.Fatalf("after k = 1, 3, 1: %+v, want one derivation and two means builds", st)
	}
	if _, wider, err := memo.ProduceCandGraphs(ctx, 3, 5); err != nil || graphsEqual(wider, rev) {
		t.Fatalf("a different cRev did not replace the reverse graph (err %v)", err)
	}
	means(1)
	if st := memo.Stats(); st.Derived != 1 || st.Builds != 4 || st.Hits != 2 {
		t.Fatalf("after a reverse budget change: %+v, want the held means served as a hit", st)
	}
	memo.Forget()
	if got := memo.Stats().Bytes; got != 0 {
		t.Fatalf("memo holds %d bytes after Forget", got)
	}
	means(1) // nothing held: built by its own pass
	if st := memo.Stats(); st.Derived != 1 || st.Builds != 5 || st.Passes != 5 {
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

// TestMemoPaddedViewBypasses: a dummy-padded view is a different score
// matrix. The generic PadCols wrapper over a memo is not a producer, so a
// graph over it is built from its tiles and nothing is memoized; the tile
// pass it streams through the memo is counted like any other.
func TestMemoPaddedViewBypasses(t *testing.T) {
	ctx := context.Background()
	m := candTestMatrices()["random-9x7"]
	memo := Memo(&DenseTileSource{M: m})
	padded := PadCols(memo, 2, 0.5)
	if _, ok := padded.(CandGraphProducer); ok {
		t.Fatal("the padded view of a memo is itself a producer")
	}
	if _, ok := padded.(PartsProducer); ok {
		t.Fatal("the padded view of a memo is itself a parts producer")
	}
	if _, cols := padded.Dims(); cols != 9 {
		t.Fatalf("padded view has %d columns, want 9", cols)
	}
	if _, err := BuildCandGraph(ctx, padded, 3); err != nil {
		t.Fatal(err)
	}
	if st := memo.Stats(); st != (MemoStats{Passes: 1}) {
		t.Fatalf("a padded build: memo counters %+v, want one tile pass and nothing built, hit or held", st)
	}
}

// searchProducer answers by search through SearchedParts, as the index
// producers do, over a dense matrix. Its reverse search writes the column statistic as the prefix of
// each column's top-c (exact on a dense matrix) and logs every search as
// "fwd c" or "rev c k".
type searchProducer struct {
	TileSource
	m        *Dense
	searches []string
}

func (p *searchProducer) ProduceParts(_ context.Context, req GraphRequest) (GraphParts, error) {
	rows, cols := p.m.Rows(), p.m.Cols()
	return SearchedParts(req, rows, cols,
		func(c int) ([]TopK, error) {
			p.searches = append(p.searches, fmt.Sprintf("fwd %d", c))
			return p.m.RowTopK(c), nil
		},
		func(c, kCol int, means []float64) ([]TopK, error) {
			p.searches = append(p.searches, fmt.Sprintf("rev %d %d", c, kCol))
			tks := p.m.Transpose().RowTopK(c)
			for j := range means {
				means[j] = HeadMean(tks[j].Values, kCol)
			}
			return tks, nil
		})
}

// TestSearchedPartsReverseSearches: a request for the reverse graph and a
// column statistic at KCol <= CRev is one reverse search carrying the
// statistic, KCol > CRev two; the parts are the separate requests' bits.
func TestSearchedPartsReverseSearches(t *testing.T) {
	ctx := context.Background()
	m := candTestMatrices()["tie-dense-8x10"]
	for _, tc := range []struct {
		req  GraphRequest
		want []string
	}{
		{GraphRequest{CRev: 3, KCol: 1}, []string{"rev 3 1"}},
		{GraphRequest{CRev: 3, KCol: 3}, []string{"rev 3 3"}},
		{GraphRequest{C: 2, CRev: 3, KCol: 4}, []string{"fwd 2", "rev 3 0", "rev 4 0"}},
		{GraphRequest{KCol: 2}, []string{"rev 2 0"}},
	} {
		p := &searchProducer{TileSource: &DenseTileSource{M: m}, m: m}
		got, err := p.ProduceParts(ctx, tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.searches, tc.want) {
			t.Fatalf("%+v: searches %v, want %v", tc.req, p.searches, tc.want)
		}
		var one [3]GraphParts
		for i, part := range []GraphRequest{{C: tc.req.C}, {CRev: tc.req.CRev}, {KCol: tc.req.KCol}} {
			if one[i], err = p.ProduceParts(ctx, part); err != nil {
				t.Fatal(err)
			}
		}
		if want := (GraphParts{Fwd: one[0].Fwd, Rev: one[1].Rev, ColMeans: one[2].ColMeans}); !partsEqual(want, got) {
			t.Fatalf("%+v: parts differ from the separate requests'", tc.req)
		}
	}
}

// TestMemoMeansAlongReverseBuild: over a parts producer, a reverse build
// made while no means are held asks for KCol = 1 too, so CSLS after RInf or Hun.'s reverse build is a hit
// counted as derived; CSLS first, or means at k > 1 already held, add
// nothing to the reverse build.
func TestMemoMeansAlongReverseBuild(t *testing.T) {
	ctx := context.Background()
	m := candTestMatrices()["tie-dense-8x10"]
	rinf := memoCall{kind: "both", c: 4, cRev: 4}
	csls1 := memoCall{kind: "means", c: 4, k: 1}
	csls3 := memoCall{kind: "means", c: 4, k: 3}
	hun := memoCall{kind: "both", c: 4}
	for _, tc := range []struct {
		name     string
		calls    []memoCall
		searches []string
		stats    MemoStats
	}{
		{"rinf-csls1", []memoCall{rinf, csls1}, []string{"fwd 4", "rev 4 1"}, MemoStats{Builds: 1, Hits: 1, Derived: 1}},
		{"hun-rinf-csls1", []memoCall{hun, rinf, csls1}, []string{"fwd 4", "rev 4 1"}, MemoStats{Builds: 2, Hits: 1, Derived: 1}},
		{"csls1-rinf", []memoCall{csls1, rinf}, []string{"fwd 4", "rev 1 0", "rev 4 0"}, MemoStats{Builds: 2}},
		{"csls3-rinf-csls3", []memoCall{csls3, rinf, csls3}, []string{"fwd 4", "rev 3 0", "rev 4 0"}, MemoStats{Builds: 2, Hits: 1}},
	} {
		p := &searchProducer{TileSource: &DenseTileSource{M: m}, m: m}
		memo := Memo(p)
		for _, mc := range tc.calls {
			want, err := mc.run(ctx, &DenseTileSource{M: m})
			if err != nil {
				t.Fatal(err)
			}
			got, err := mc.run(ctx, memo)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if !partsEqual(want, got) {
				t.Fatalf("%s: %+v: memoized parts differ from the exhaustive build", tc.name, mc)
			}
		}
		if !reflect.DeepEqual(p.searches, tc.searches) {
			t.Errorf("%s: searches %v, want %v", tc.name, p.searches, tc.searches)
		}
		got := memo.Stats()
		got.Bytes = 0
		if got != tc.stats {
			t.Errorf("%s: stats %+v, want %+v", tc.name, got, tc.stats)
		}
	}
}
