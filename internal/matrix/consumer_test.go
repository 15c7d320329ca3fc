package matrix

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// serialOffer is the reference the gated, core-parallel consumers must
// reproduce bit for bit: one goroutine, one minHeap.offer call per score per
// heap, one strict-greater compare per score for the argmax.
type serialOffer struct {
	kRow, kCol int
	rows, cols []minHeap
	arg        *RunningArgmax
}

func newSerialOffer(rows, cols, kRow, kCol int) *serialOffer {
	return &serialOffer{
		kRow: kRow, kCol: kCol,
		rows: make([]minHeap, rows), cols: make([]minHeap, cols),
		arg: NewRunningArgmax(rows),
	}
}

func (s *serialOffer) ConsumeTile(rowOff, colOff int, tile *Dense) {
	for r := 0; r < tile.rows; r++ {
		i := rowOff + r
		for c, v := range tile.Row(r) {
			j := colOff + c
			s.rows[i].offer(v, j, s.kRow)
			s.cols[j].offer(v, i, s.kCol)
			if v > s.arg.Vals[i] {
				s.arg.Vals[i], s.arg.Idx[i] = v, j
			}
		}
	}
}

// sameBits is float equality that also holds NaN payloads to account.
func sameBits(a, b []float64) bool {
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

// checkHeapArrays compares heap storage in array order — the layout heapMean
// sums in — not just the selected sets.
func checkHeapArrays(t *testing.T, what string, got, want []minHeap) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d heaps, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i].vals, want[i].vals) || !slices.Equal(got[i].idx, want[i].idx) {
			t.Fatalf("%s heap %d:\n got  %v %v\n want %v %v", what, i, got[i].vals, got[i].idx, want[i].vals, want[i].idx)
		}
	}
}

// checkConsumersAgainstSerial streams src through the three in-tree
// consumers and the serial reference in one pass and compares everything
// they hold: heap arrays before finalize, the column thresholds, the argmax,
// then the finalized selections and means.
func checkConsumersAgainstSerial(t *testing.T, src TileSource, kRow, kCol int) {
	t.Helper()
	rows, cols := src.Dims()
	top, col, arg := NewRunningTopK(rows, kRow), NewColTopKAcc(cols, kCol), NewRunningArgmax(rows)
	defer top.Release()
	defer col.Release()
	ref := newSerialOffer(rows, cols, kRow, kCol)
	if err := src.StreamTiles(context.Background(), top, ref, col, arg); err != nil {
		t.Fatal(err)
	}
	checkHeapArrays(t, "RunningTopK", top.heaps, ref.rows)
	checkHeapArrays(t, "ColTopKAcc", col.heaps, ref.cols)
	for j := range col.heaps {
		if got, want := col.thr[j], col.heaps[j].threshold(kCol); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ColTopKAcc threshold %d = %v, heap says %v", j, got, want)
		}
	}
	if !sameBits(arg.Vals, ref.arg.Vals) || !slices.Equal(arg.Idx, ref.arg.Idx) {
		t.Fatalf("RunningArgmax diverged from the serial scan")
	}
	wantMeans := make([]float64, cols)
	for j := range ref.cols {
		wantMeans[j] = ref.cols[j].heapMean()
	}
	if got := col.Means(); !sameBits(got, wantMeans) {
		t.Fatalf("ColTopKAcc means %v, want %v", got, wantMeans)
	}
	g, err := graphFromHeaps(col.heaps, rows)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ref.cols {
		want := ref.cols[j].finalize()
		ids, scores := g.Row(j)
		if !sameBits(scores, want.Values) || len(ids) != len(want.Indices) {
			t.Fatalf("reverse graph row %d scores %v, want %v", j, scores, want.Values)
		}
		for x, id := range ids {
			if int(id) != want.Indices[x] {
				t.Fatalf("reverse graph row %d ids %v, want %v", j, ids, want.Indices)
			}
		}
	}
	for i, got := range top.Finalize() {
		want := ref.rows[i].finalize()
		if !sameBits(got.Values, want.Values) || !slices.Equal(got.Indices, want.Indices) {
			t.Fatalf("RunningTopK row %d finalized to %+v, want %+v", i, got, want)
		}
	}
}

// adversarialMatrices are the value regimes where a gate or a reordered fold
// would show: boundary ties, equal columns, scores one ulp apart, and the
// non-finite values offer's append path must still see.
func adversarialMatrices(rng *rand.Rand, rows, cols int) map[string]*Dense {
	fill := func(f func(i, j int) float64) *Dense {
		m := New(rows, cols)
		for i := 0; i < rows; i++ {
			for j := range m.Row(i) {
				m.Row(i)[j] = f(i, j)
			}
		}
		return m
	}
	colVal := make([]float64, rows)
	for i := range colVal {
		colVal[i] = rng.Float64()
	}
	return map[string]*Dense{
		"random": fill(func(int, int) float64 { return rng.NormFloat64() }),
		"ties":   fill(func(int, int) float64 { return float64(rng.Intn(3)) / 4 }),
		"dupcols": fill(func(i, j int) float64 {
			if j%3 != 1 {
				return colVal[i]
			}
			return rng.Float64()
		}),
		"ulp": fill(func(int, int) float64 {
			v := 0.5
			for n := rng.Intn(4); n > 0; n-- {
				v = math.Nextafter(v, 1)
			}
			return v
		}),
		"nonfinite": fill(func(int, int) float64 {
			switch rng.Intn(8) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			case 2:
				return math.NaN()
			}
			return float64(rng.Intn(5))
		}),
	}
}

// TestConsumersMatchSerialOffer is the differential test behind the
// determinism contract: at every GOMAXPROCS, tile shape and budget — heaps
// that never fill, fill exactly at the last score, or fill mid-tile and stay
// under capacity across a tile boundary — the parallel gated consumers hold
// exactly the arrays one serial offer per score builds, through PadCols'
// dummy tiles too.
func TestConsumersMatchSerialOffer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type shape struct{ rows, cols, tr, tc int }
	shapes := []shape{
		{9, 11, 1, 1},
		{23, 37, 3, 5},   // ragged last tile in both directions
		{40, 64, 8, 16},  // whole tiles only
		{300, 600, 0, 0}, // default 256x512 tiles, ragged last
	}
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, sh := range shapes {
			// {kRow, kCol}: 1, width-1, width, > width.
			budgets := [][2]int{{1, 1}, {sh.cols - 1, sh.rows - 1}, {sh.cols, sh.rows}, {sh.cols + 3, sh.rows + 3}}
			if sh.tr == 0 {
				// Wide heaps are slow under -race; at the default tile shape
				// keep the one that fills in the second tile of each direction.
				budgets = [][2]int{{1, 1}, {40, 40}, {DefaultTileCols + 8, DefaultTileRows + 4}}
			}
			rng := rand.New(rand.NewSource(int64(sh.rows*1000 + sh.cols)))
			for name, m := range adversarialMatrices(rng, sh.rows, sh.cols) {
				if sh.tr == 0 && name != "ties" && name != "nonfinite" {
					continue
				}
				src := &DenseTileSource{M: m, TileRows: sh.tr, TileCols: sh.tc}
				for _, k := range budgets {
					if sh.tr == 0 && k[0] > DefaultTileCols && (name != "ties" || testing.Short()) {
						continue
					}
					t.Run(fmt.Sprintf("procs=%d/%dx%d/%s/k=%d", procs, sh.rows, sh.cols, name, k[0]), func(t *testing.T) {
						checkConsumersAgainstSerial(t, src, k[0], k[1])
						checkConsumersAgainstSerial(t, PadCols(src, 7, 0.25), k[0]+7, k[1])
					})
				}
			}
		}
	}
}
