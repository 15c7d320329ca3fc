package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestPoolThreshold pins the boundary semantics: the p-th largest value,
// ties included in the pool by its >= rule, MinInt32 and every position when
// everything pools.
func TestPoolThreshold(t *testing.T) {
	scores := []int32{5, 1, 9, 3, 9, 5, 7}
	var ps poolSelector
	cases := []struct {
		p    int
		want int32
		pool []int32
	}{
		{0, 9, []int32{2, 4}}, {1, 9, []int32{2, 4}}, {2, 9, []int32{2, 4}}, {3, 7, []int32{2, 4, 6}},
		{4, 5, []int32{0, 2, 4, 5, 6}}, {5, 5, []int32{0, 2, 4, 5, 6}}, {6, 3, []int32{0, 2, 3, 4, 5, 6}},
		{7, math.MinInt32, []int32{0, 1, 2, 3, 4, 5, 6}}, {100, math.MinInt32, []int32{0, 1, 2, 3, 4, 5, 6}},
	}
	for _, tc := range cases {
		if got, pool := ps.run(scores, tc.p); got != tc.want || !slices.Equal(pool, tc.pool) {
			t.Fatalf("p=%d: threshold %d pool %v, want %d %v", tc.p, got, pool, tc.want, tc.pool)
		}
	}
	// All-ties: any p below len yields the tied value → the >= pool rule
	// spans the whole collapse.
	if got, pool := ps.run([]int32{4, 4, 4, 4}, 2); got != 4 || len(pool) != 4 {
		t.Fatalf("tied: threshold %d pool %v, want 4 and all four", got, pool)
	}
	if got, pool := ps.run(nil, 3); got != math.MinInt32 || len(pool) != 0 {
		t.Fatalf("empty: threshold %d pool %v", got, pool)
	}
}

// checkPoolSelect holds one selection to sort-and-index: the threshold is
// the p-th largest value (MinInt32 once p reaches n) and the pool is exactly
// {x : scores[x] >= threshold}, ascending. scores must come back untouched.
func checkPoolSelect(t *testing.T, ps *poolSelector, scores []int32, p int) {
	t.Helper()
	n := len(scores)
	before := slices.Clone(scores)
	th, pool := ps.run(scores, p)
	if !slices.Equal(scores, before) {
		t.Fatalf("n=%d p=%d: the scores were modified", n, p)
	}
	want := int32(math.MinInt32)
	if p = max(p, 1); p < n { // a rank below 1 selects the maximum
		sorted := slices.Clone(scores)
		slices.Sort(sorted)
		want = sorted[n-p]
	}
	if th != want {
		t.Fatalf("n=%d p=%d: threshold %d, want %d", n, p, th, want)
	}
	var wantPool []int32
	for x, v := range scores {
		if v >= want {
			wantPool = append(wantPool, int32(x))
		}
	}
	if !slices.Equal(pool, wantPool) {
		t.Fatalf("n=%d p=%d: pool of %d positions, want %d: %v vs %v", n, p, len(pool), len(wantPool), pool, wantPool)
	}
}

// TestPoolSelectMatchesSort is the selection's property test: every input
// shape × the ranks that sit on a path boundary (p = 1, the tiny-p lists,
// the direct histogram at poolSlack·p >= n, p = n−1, p >= n), one selector
// reused across all of them as a pooled scratch is.
func TestPoolSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	// A slice, not a map: the shapes draw from one rng in turn, so a fixed
	// order keeps the random rank, and with it each subtest's name, stable.
	shapes := []struct {
		name string
		fill func(s []int32)
	}{
		{"two-extremes", func(s []int32) {
			for i := range s {
				s[i] = math.MinInt32
				if rng.Intn(3) == 0 {
					s[i] = math.MaxInt32
				}
			}
		}},
		{"clustered", func(s []int32) { // one far outlier: the recursion's case
			for i := range s {
				s[i] = 1000 + int32(rng.Intn(40))
			}
			s[len(s)/2] = math.MaxInt32
		}},
		{"ascending", func(s []int32) { // every score passes the running bound
			for i := range s {
				s[i] = int32(i) * 3
			}
		}},
		{"descending", func(s []int32) {
			for i := range s {
				s[i] = -int32(i) * 3
			}
		}},
		{"gaussian", func(s []int32) { // the shape of int8 dot scores
			for i := range s {
				s[i] = int32(rng.NormFloat64() * 180000)
			}
		}},
		{"all-ties", func(s []int32) {
			for i := range s {
				s[i] = -77
			}
		}},
		{"few-values", func(s []int32) { // ties at every boundary
			for i := range s {
				s[i] = int32(rng.Intn(5)) - 2
			}
		}},
		{"full-span", func(s []int32) { // span > 2^31: offsets need uint32
			for i := range s {
				s[i] = int32(rng.Uint32())
			}
			s[0], s[len(s)-1] = math.MinInt32, math.MaxInt32
		}},
	}
	var ps poolSelector
	for _, sh := range shapes {
		for _, n := range []int{1, 2, 3, 15, 16, 17, 40, 75, 300, 1023, 5600, 20000} {
			scores := make([]int32, n)
			sh.fill(scores)
			ranks := []int{1, 2, 4, 8, 9, n / 16, n / 5, n / 4, n/4 + 1, n / 2, n - 1, n, n + 1, 1 + rng.Intn(n)}
			for _, p := range ranks {
				if p < 1 {
					continue
				}
				t.Run(fmt.Sprintf("%s/n=%d/p=%d", sh.name, n, p), func(t *testing.T) {
					checkPoolSelect(t, &ps, scores, p)
				})
			}
		}
	}
}

// FuzzPoolSelect drives the selection with arbitrary little-endian int32
// strings and ranks against the same oracle.
func FuzzPoolSelect(f *testing.F) {
	le := func(vs ...int32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		return b
	}
	f.Add(le(5, 1, 9, 3, 9, 5, 7), uint16(3))
	f.Add(le(math.MinInt32, math.MaxInt32, 0, -1, 1), uint16(2))
	f.Add(le(4, 4, 4, 4), uint16(1))
	f.Add(make([]byte, 4*100), uint16(7))
	f.Fuzz(func(t *testing.T, raw []byte, p uint16) {
		scores := make([]int32, len(raw)/4)
		for i := range scores {
			scores[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		var ps poolSelector
		checkPoolSelect(t, &ps, scores, int(p))
		// And once more on the warmed selector at a neighbouring rank.
		checkPoolSelect(t, &ps, scores, int(p)/2+1)
	})
}

// BenchmarkPoolSelect times the selection at the (n, p) the engines ask for:
// a /match/topk miss (one IVF cell, k = 10), a small cell at the default
// C = 64, the CSLS k = 1 column scan, the flat C = 64 scan of the benchmark
// workload, and the same pool out of a 100k corpus.
func BenchmarkPoolSelect(b *testing.B) {
	for _, c := range [][2]int{{75, 40}, {300, 256}, {5600, 4}, {5600, 256}, {100000, 256}} {
		n, p := c[0], c[1]
		b.Run(fmt.Sprintf("n=%d/p=%d", n, p), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			var in [16][]int32 // rotated, so no one input trains the branches
			for i := range in {
				in[i] = make([]int32, n)
				for x := range in[i] {
					in[i][x] = int32(rng.NormFloat64() * 180000)
				}
			}
			var ps poolSelector
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th, pool := ps.run(in[i%len(in)], p)
				sinkI32 += th + int32(len(pool))
			}
		})
	}
}
