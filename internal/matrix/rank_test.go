package matrix_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"entmatcher/internal/conformance"
	"entmatcher/internal/matrix"
)

// refOrderDesc is the definition the ranking primitive must reproduce: a
// stable sort of the positions by descending value, so equal values — −0.0
// and +0.0 are equal — stay in ascending position order.
func refOrderDesc(vals []float64) []int32 {
	order := make([]int32, len(vals))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return vals[order[a]] > vals[order[b]] })
	return order
}

// refOrderDescByKey breaks value ties by ascending key instead.
func refOrderDescByKey(vals []float64, key []int) []int32 {
	order := make([]int32, len(vals))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := vals[order[a]], vals[order[b]]
		if va != vb {
			return va > vb
		}
		return key[order[a]] < key[order[b]]
	})
	return order
}

// checkRanking compares every entry point of the primitive against the
// references on one row.
func checkRanking(t *testing.T, vals []float64) {
	t.Helper()
	n := len(vals)
	want := refOrderDesc(vals)

	got := make([]int32, n)
	matrix.OrderDesc(got, vals)
	if !slices.Equal(got, want) {
		t.Fatalf("OrderDesc(%v)\n got %v\nwant %v", vals, got, want)
	}

	ranks := make([]int32, n)
	matrix.RanksDesc(ranks, vals)
	for r, p := range want {
		if ranks[p] != int32(r) {
			t.Fatalf("RanksDesc(%v)[%d] = %d, want %d", vals, p, ranks[p], r)
		}
	}

	if n > 0 {
		m, err := matrix.NewFromData(1, n, append([]float64(nil), vals...))
		if err != nil {
			t.Fatal(err)
		}
		m.RowRanksInPlace()
		for r, p := range want {
			if m.At(0, int(p)) != float64(r+1) {
				t.Fatalf("RowRanksInPlace(%v)[%d] = %v, want %d", vals, p, m.At(0, int(p)), r+1)
			}
		}
	}

	// Keys in an order unrelated to the positions, negative ones included.
	key := rand.New(rand.NewSource(int64(n))).Perm(n)
	for i := range key {
		key[i] -= n / 2
	}
	matrix.OrderDescByKey(got, vals, key)
	if wantK := refOrderDescByKey(vals, key); !slices.Equal(got, wantK) {
		t.Fatalf("OrderDescByKey(%v, %v)\n got %v\nwant %v", vals, key, got, wantK)
	}
}

// repeatTo cycles pattern up to length n.
func repeatTo(pattern []float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}

func TestRankingMatchesStableSortReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	denorm := math.SmallestNonzeroFloat64
	ulps := func(base float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = base
			base = math.Nextafter(base, 2)
		}
		return out
	}
	patterns := []struct {
		name string
		vals []float64
	}{
		{"all-equal", []float64{0.25}},
		{"mixed-signed-zeros", []float64{0, negZero, negZero, 0, 1e-300, negZero, -1e-300, 0}},
		{"zeros-only", []float64{negZero, 0}},
		{"denormals", []float64{denorm, -denorm, 2 * denorm, 0, -2 * denorm, negZero, denorm}},
		{"one-ulp-neighbours", ulps(0.5, 9)},
		{"one-ulp-neighbours-negative", ulps(-0.75, 9)},
		{"duplicates", []float64{0.5, 0.25, 0.5, 0.75, 0.25, 0.5, -0.5, 0.75, -0.5}},
		{"infinities", []float64{math.Inf(1), 1, math.Inf(-1), -1, math.Inf(1), 0, math.Inf(-1)}},
		{"wide-exponents", []float64{1e300, 1e-300, -1e300, -1e-300, 1, -1, math.MaxFloat64, -math.MaxFloat64}},
	}
	// Lengths on both sides of the insertion/radix switch, odd ones included.
	lengths := []int{0, 1, 2, 3, 7, 63, 64, 65, 127, 300}
	for _, p := range patterns {
		for _, n := range lengths {
			t.Run(fmt.Sprintf("%s/n=%d", p.name, n), func(t *testing.T) {
				checkRanking(t, repeatTo(p.vals, n))
			})
		}
	}
	for _, n := range lengths {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()*2 - 1
		}
		t.Run(fmt.Sprintf("random/n=%d", n), func(t *testing.T) { checkRanking(t, vals) })
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		t.Run(fmt.Sprintf("ascending/n=%d", n), func(t *testing.T) { checkRanking(t, sorted) })
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			sorted[i], sorted[j] = sorted[j], sorted[i]
		}
		t.Run(fmt.Sprintf("descending/n=%d", n), func(t *testing.T) { checkRanking(t, sorted) })
	}
}

// FuzzRanking decodes the input as raw doubles — every bit pattern except
// NaN, which the finite gate keeps away from the primitive — and holds the
// primitive to the stable-sort references. The seeds are the rows of the
// conformance suite's adversarial matrices, tiled past the insertion/radix
// switch so both paths start from tie-heavy, 1-ulp and duplicate inputs.
func FuzzRanking(f *testing.F) {
	for _, c := range conformance.AdversarialCases(1) {
		for i := 0; i < c.S.Rows(); i++ {
			row := c.S.Row(i)
			for _, n := range []int{len(row), 5*len(row) + 61} {
				buf := make([]byte, 0, 8*n)
				for _, v := range repeatTo(row, n) {
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
				}
				f.Add(buf)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if math.IsNaN(v) {
				v = math.Copysign(0, -1)
			}
			vals[i] = v
		}
		checkRanking(t, vals)
	})
}
