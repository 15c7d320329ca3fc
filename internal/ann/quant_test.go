package ann

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
	"entmatcher/internal/sim"
)

func encodeTable(t *testing.T, m *matrix.Dense) *quant.Table {
	t.Helper()
	q, err := quant.Encode(context.Background(), m)
	if err != nil {
		t.Fatalf("quant.Encode: %v", err)
	}
	return q
}

// TestSearchQuantMatchesSearch pins the two-phase quantized scan against the
// float path at the default rerank factor across geometries and coverage
// levels: identical cells are probed (shared float64 cell ranking), and the
// re-ranked selections must be bit-identical whenever the pool covers the
// true top-c — which holds on this clustered geometry at factor 4 and is
// guaranteed at full pool (factor >= n/c).
func TestSearchQuantMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ n, nq, d, k, c, nprobe int }{
		{60, 25, 16, 4, 5, 4}, // full coverage
		{200, 40, 32, 14, 10, 14},
		{200, 40, 32, 14, 10, 3}, // partial coverage: same probes, same pool rule
		{50, 20, 7, 5, 5, 5},     // short vectors (scalar kernels)
		{33, 10, 24, 6, 40, 6},   // c > corpus
	} {
		corpus := randTable(rng, tc.n, tc.d, 3)
		queries := randTable(rng, tc.nq, tc.d, 3)
		ivf, err := Build(context.Background(), corpus, Config{Clusters: tc.k, Seed: 11})
		if err != nil {
			t.Fatalf("%+v: Build: %v", tc, err)
		}
		if _, err := ivf.SearchQuant(context.Background(), queries, tc.c, tc.nprobe, 0, true); err == nil {
			t.Fatalf("%+v: SearchQuant before AttachQuant: want error", tc)
		}
		if err := ivf.AttachQuant(encodeTable(t, corpus)); err != nil {
			t.Fatalf("%+v: AttachQuant: %v", tc, err)
		}
		want, err := ivf.Search(context.Background(), queries, tc.c, tc.nprobe)
		if err != nil {
			t.Fatalf("%+v: Search: %v", tc, err)
		}
		got, err := ivf.SearchQuant(context.Background(), queries, tc.c, tc.nprobe, 0, true)
		if err != nil {
			t.Fatalf("%+v: SearchQuant: %v", tc, err)
		}
		for i := range want {
			if !topKEqual(got[i], want[i]) {
				t.Fatalf("%+v: query %d differs from float scan\ngot  %+v\nwant %+v", tc, i, got[i], want[i])
			}
		}
	}
}

// TestSearchQuantQuantizedOnly: with rerank off the scores are the
// documented approximation sq·DotI8 — close to the exact inner products but
// not required to match; the selection must still be a valid (value desc,
// index asc) ordering over distinct indices.
func TestSearchQuantQuantizedOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	corpus := randTable(rng, 120, 32, 4)
	queries := randTable(rng, 30, 32, 4)
	ivf, err := Build(context.Background(), corpus, Config{Clusters: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ivf.AttachQuant(encodeTable(t, corpus)); err != nil {
		t.Fatal(err)
	}
	got, err := ivf.SearchQuant(context.Background(), queries, 6, 8, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	exact := naiveSearch(queries, corpus, 6)
	for i, tk := range got {
		seen := map[int]bool{}
		for x := range tk.Values {
			if x > 0 && (tk.Values[x] > tk.Values[x-1] ||
				(tk.Values[x] == tk.Values[x-1] && tk.Indices[x] < tk.Indices[x-1])) {
				t.Fatalf("query %d: selection not in (value desc, index asc) order", i)
			}
			if seen[tk.Indices[x]] {
				t.Fatalf("query %d: duplicate index %d", i, tk.Indices[x])
			}
			seen[tk.Indices[x]] = true
			if d := tk.Values[x] - exact[i].Values[x]; d > 0.2 || d < -0.2 {
				t.Fatalf("query %d slot %d: approx score %v too far from exact %v",
					i, x, tk.Values[x], exact[i].Values[x])
			}
		}
	}
}

// TestAttachQuantValidation: shape mismatches and nil tables are rejected.
func TestAttachQuantValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	corpus := randTable(rng, 40, 16, 2)
	ivf, err := Build(context.Background(), corpus, Config{Clusters: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ivf.AttachQuant(nil); err == nil {
		t.Fatal("nil table accepted")
	}
	wrong := randTable(rng, 39, 16, 2)
	if err := ivf.AttachQuant(encodeTable(t, wrong)); err == nil {
		t.Fatal("row-count mismatch accepted")
	}
	wrongD := randTable(rng, 40, 8, 2)
	if err := ivf.AttachQuant(encodeTable(t, wrongD)); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if ivf.HasQuant() {
		t.Fatal("failed attach left quant enabled")
	}
	codes := encodeTable(t, corpus)
	if err := ivf.AttachQuant(codes); err != nil {
		t.Fatal(err)
	}
	if !ivf.HasQuant() || ivf.QuantBytes() != int64(40*16)+16*8 {
		t.Fatalf("QuantBytes = %d", ivf.QuantBytes())
	}
	// Re-attaching the attached table is a no-op: sources sharing the index
	// (entserver's quant tier over the float tier's) must not pay a second
	// n×dim scatter.
	slab := &ivf.scan.Codes[0]
	if err := ivf.AttachQuant(codes); err != nil {
		t.Fatal(err)
	}
	if &ivf.scan.Codes[0] != slab {
		t.Fatal("re-attaching the same table reallocated the code slab")
	}
}

// TestSourceQuantMatchesExact lifts the pin to the producer level: a Source
// with EnableQuant at full coverage must emit graphs bit-identical to the
// exhaustive builders', exactly like the float path (the conformance suite
// covers the adversarial cases; this is the package-local smoke).
func TestSourceQuantMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	src := randTable(rng, 70, 24, 3)
	tgt := randTable(rng, 64, 24, 3)
	st, err := sim.NewStream(src, tgt, sim.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	sTab, tTab := st.PreparedTables()
	annSrc, err := NewSource(st, sTab, tTab, Config{Clusters: 6, NProbe: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := annSrc.EnableQuant(encodeTable(t, sTab), encodeTable(t, tTab), 0, true); err != nil {
		t.Fatal(err)
	}
	cc := context.Background()
	wantF, wantR, err := matrix.BuildCandGraphs(cc, st, 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	gotF, gotR, err := matrix.BuildCandGraphs(cc, annSrc, 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct{ want, got *matrix.CandGraph }{{wantF, gotF}, {wantR, gotR}} {
		if pair.want.NNZ() != pair.got.NNZ() {
			t.Fatal("graph sizes differ")
		}
		for i := 0; i < pair.want.Rows(); i++ {
			wj, ws := pair.want.Row(i)
			gj, gs := pair.got.Row(i)
			for x := range wj {
				if wj[x] != gj[x] || ws[x] != gs[x] {
					t.Fatalf("row %d slot %d differs", i, x)
				}
			}
		}
	}
}

// TestSearchAllocsPooled is the allocs-per-op regression for the pooled
// query scratch (the PR's satellite fix): per-query costs must be the
// escaping results only — the cell-ranking selector, the candidate
// selector, and the quantized-scan buffers are pooled per index, so allocs
// per query must not scale with corpus size, cluster count, or repeated
// calls. Mirrors TestAccumulatorConstructionAllocsFlat.
func TestSearchAllocsPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector bookkeeping")
	}
	rng := rand.New(rand.NewSource(17))
	mk := func(n, k int) (*IVF, *matrix.Dense) {
		corpus := randTable(rng, n, 32, 4)
		queries := randTable(rng, 4, 32, 4)
		ivf, err := Build(context.Background(), corpus, Config{Clusters: k, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := ivf.AttachQuant(encodeTable(t, corpus)); err != nil {
			t.Fatal(err)
		}
		return ivf, queries
	}
	measure := func(ivf *IVF, queries *matrix.Dense, quantized bool) float64 {
		search := func() {
			var err error
			if quantized {
				_, err = ivf.SearchQuant(context.Background(), queries, 8, ivf.Clusters(), 0, true)
			} else {
				_, err = ivf.Search(context.Background(), queries, 8, ivf.Clusters())
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		search() // warm the scratch pool at this geometry
		return testing.AllocsPerRun(20, search)
	}
	smallIVF, smallQ := mk(64, 4)
	largeIVF, largeQ := mk(2048, 32)
	for _, quantized := range []bool{false, true} {
		small := measure(smallIVF, smallQ, quantized)
		large := measure(largeIVF, largeQ, quantized)
		// Escaping per call: the out slice + 2 copies per query (4 queries),
		// plus the parallel-driver bookkeeping. The bound is deliberately
		// loose in absolute terms but pins the scaling: a per-query scratch
		// allocation would add O(queries) and a per-candidate one O(n).
		if large > small+4 {
			t.Errorf("quantized=%v: search allocations scale with index size: %v at n=64, %v at n=2048",
				quantized, small, large)
		}
		if large > 24 {
			t.Errorf("quantized=%v: search costs %v allocations for 4 queries, want a small constant", quantized, large)
		}
	}
}

// TestSearchRowsMatchesForwardGraph pins the point-lookup entry to the graph
// build: at a partial probe count, float and SQ8, Source.SearchRows returns
// for each listed row — repeats and any order included, and asked alone —
// exactly the row of ProduceParts' forward graph at the same budget, and
// rejects a row outside the source table.
func TestSearchRowsMatchesForwardGraph(t *testing.T) {
	ctx := context.Background()
	rows := []int{5, 0, 69, 5, 33, 12, 48}
	for _, sq8 := range []bool{false, true} {
		rng := rand.New(rand.NewSource(37))
		st, as := newTestSource(t, rng, 70, 64, 24, Config{Clusters: 6, NProbe: 2, Seed: 3})
		if sq8 {
			sTab, tTab := st.PreparedTables()
			if err := as.EnableQuant(encodeTable(t, sTab), encodeTable(t, tTab), 0, true); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []int{1, 7} {
			parts, err := as.ProduceParts(ctx, matrix.GraphRequest{C: c})
			if err != nil {
				t.Fatalf("sq8=%v c=%d: ProduceParts: %v", sq8, c, err)
			}
			got, err := as.SearchRows(ctx, rows, c)
			if err != nil {
				t.Fatalf("sq8=%v c=%d: SearchRows: %v", sq8, c, err)
			}
			for i, row := range rows {
				cols, scores := parts.Fwd.Row(row)
				if len(got[i].Indices) != len(cols) {
					t.Fatalf("sq8=%v c=%d row %d: %d hits, graph row has %d", sq8, c, row, len(got[i].Indices), len(cols))
				}
				for x := range cols {
					if got[i].Indices[x] != int(cols[x]) || got[i].Values[x] != scores[x] {
						t.Fatalf("sq8=%v c=%d row %d slot %d: lookup (%d, %v), graph (%d, %v)", sq8, c, row, x,
							got[i].Indices[x], got[i].Values[x], cols[x], scores[x])
					}
				}
				// Alone the row is queried in place, not gathered: same bits.
				lone, err := as.SearchRows(ctx, []int{row}, c)
				if err != nil {
					t.Fatalf("sq8=%v c=%d row %d alone: %v", sq8, c, row, err)
				}
				if !topKEqual(lone[0], got[i]) {
					t.Fatalf("sq8=%v c=%d row %d: alone %+v, in the batch %+v", sq8, c, row, lone[0], got[i])
				}
			}
		}
		if _, err := as.SearchRows(ctx, []int{70}, 3); !errors.Is(err, matrix.ErrSlab) {
			t.Fatalf("sq8=%v: row past the table: err %v, want matrix.ErrSlab", sq8, err)
		}
	}
}
