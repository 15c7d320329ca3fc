package conformance

import (
	"context"
	"testing"

	"entmatcher/internal/ann"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
	"entmatcher/internal/sim"
)

// The register-blocked multi-query kernels (matrix.DotBlock3 and
// quant.DotI8Block4) are implementation details of the scan paths, never an
// approximation: every score and every selection they produce must be
// bit-identical to the per-pair Dot4/DotI8 paths, on the full adversarial
// embedding suite — 1-ulp near-ties and duplicate rows are exactly where a
// kernel with a different summation order would betray itself. These pins
// hold on both the assembly and purego legs (CI runs both).

// tileGrid collects a streamed score pass into a dense matrix.
type tileGrid struct{ dst *matrix.Dense }

func (c *tileGrid) ConsumeTile(rowOff, colOff int, tile *matrix.Dense) {
	for r := 0; r < tile.Rows(); r++ {
		copy(c.dst.Row(rowOff + r)[colOff:colOff+tile.Cols()], tile.Row(r))
	}
}

// TestBlockedTilePassMatchesDot4 pins the streamed cosine tile pass — whose
// inner loop now runs groups of three source rows through the blocked
// kernel — to the per-pair streaming kernel, element for element, for both
// the resident and the out-of-core engine.
func TestBlockedTilePassMatchesDot4(t *testing.T) {
	ctx := context.Background()
	for _, tc := range annCases(suiteSeed) {
		resident, err := sim.NewStream(tc.Src, tc.Tgt, sim.Cosine)
		if err != nil {
			t.Fatalf("%s: NewStream: %v", tc.Name, err)
		}
		sTab, tTab := resident.PreparedTables()
		// *Dense satisfies matrix.RowsReader, so the same prepared tables
		// enter through the out-of-core constructor. The stream picks its
		// row window by table type, so these are read in place; the
		// gathered-window pass over a non-Dense reader is pinned in
		// internal/sim and in fault_test.go.
		ooc, err := sim.NewStreamOOC(sTab, tTab, sim.Cosine)
		if err != nil {
			t.Fatalf("%s: NewStreamOOC: %v", tc.Name, err)
		}
		for _, eng := range []struct {
			name string
			st   *sim.Stream
		}{{"resident", resident}, {"ooc", ooc}} {
			rows, cols := eng.st.Dims()
			grid := &tileGrid{dst: matrix.New(rows, cols)}
			if err := eng.st.StreamTiles(ctx, grid); err != nil {
				t.Fatalf("%s/%s: StreamTiles: %v", tc.Name, eng.name, err)
			}
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					if got, want := grid.dst.At(i, j), matrix.Dot4(sTab.Row(i), tTab.Row(j)); got != want {
						t.Fatalf("%s/%s: (%d,%d): tile pass %x != Dot4 %x",
							tc.Name, eng.name, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestBlockedBlockExtractionMatchesDot4 pins multi-row Block extraction (the
// shape batched server scans and blocked matchers use) on both engines:
// every element equals Dot4 of the prepared rows, for row counts that
// exercise full groups of three and every ragged remainder.
func TestBlockedBlockExtractionMatchesDot4(t *testing.T) {
	ctx := context.Background()
	for _, tc := range annCases(suiteSeed) {
		resident, err := sim.NewStream(tc.Src, tc.Tgt, sim.Cosine)
		if err != nil {
			t.Fatalf("%s: NewStream: %v", tc.Name, err)
		}
		sTab, tTab := resident.PreparedTables()
		ooc, err := sim.NewStreamOOC(sTab, tTab, sim.Cosine)
		if err != nil {
			t.Fatalf("%s: NewStreamOOC: %v", tc.Name, err)
		}
		rows, cols := resident.Dims()
		colIDs := make([]int, cols)
		for j := range colIDs {
			colIDs[j] = j
		}
		for _, nr := range []int{1, 2, 3, 4, 5, 6, 7} {
			if nr > rows {
				break
			}
			rowIDs := make([]int, nr)
			for i := range rowIDs {
				rowIDs[i] = (i * 3) % rows
			}
			for _, eng := range []struct {
				name string
				st   *sim.Stream
			}{{"resident", resident}, {"ooc", ooc}} {
				blk, err := eng.st.Block(ctx, rowIDs, colIDs)
				if err != nil {
					t.Fatalf("%s/%s: Block(%d rows): %v", tc.Name, eng.name, nr, err)
				}
				for i, ri := range rowIDs {
					for j := range colIDs {
						if got, want := blk.At(i, j), matrix.Dot4(sTab.Row(ri), tTab.Row(j)); got != want {
							t.Fatalf("%s/%s: block(%d rows) (%d,%d): %x != Dot4 %x",
								tc.Name, eng.name, nr, i, j, got, want)
						}
					}
				}
			}
		}
	}
}

// topKsIdentical compares two selections bit for bit.
func topKsIdentical(a, b matrix.TopK) bool {
	if len(a.Values) != len(b.Values) {
		return false
	}
	for x := range a.Values {
		if a.Values[x] != b.Values[x] || a.Indices[x] != b.Indices[x] {
			return false
		}
	}
	return true
}

// TestBatchedSearchesMatchSolo pins the grouped multi-query search entry
// points — the IVF float scan (groups of three), the IVF quantized scan and
// the exhaustive quantized scan (groups of four) — to their solo-query
// selves on the adversarial suite: batching queries may only change slab
// traffic, never a returned value or index, because the blocked kernels are
// bit-identical and the selectors are scan-order-insensitive. Query counts
// cover full groups and every ragged remainder.
func TestBatchedSearchesMatchSolo(t *testing.T) {
	ctx := context.Background()
	const k, nprobe = 5, 3
	for _, tc := range annCases(suiteSeed) {
		st, err := sim.NewStream(tc.Src, tc.Tgt, sim.Cosine)
		if err != nil {
			t.Fatalf("%s: NewStream: %v", tc.Name, err)
		}
		sTab, tTab := st.PreparedTables()
		ivf, err := ann.Build(ctx, tTab, ann.Config{Clusters: 4, Seed: 7})
		if err != nil {
			t.Fatalf("%s: ann.Build: %v", tc.Name, err)
		}
		tgtQ, err := quant.Encode(ctx, tTab)
		if err != nil {
			t.Fatalf("%s: quant.Encode: %v", tc.Name, err)
		}
		if err := ivf.AttachQuant(tgtQ); err != nil {
			t.Fatalf("%s: AttachQuant: %v", tc.Name, err)
		}
		srcQ, err := quant.Encode(ctx, sTab)
		if err != nil {
			t.Fatalf("%s: quant.Encode(src): %v", tc.Name, err)
		}
		qsrc, err := quant.NewSource(st, sTab, tTab, srcQ, tgtQ, 0, true)
		if err != nil {
			t.Fatalf("%s: quant.NewSource: %v", tc.Name, err)
		}

		for _, nq := range []int{1, 2, 3, 4, 5, 7, 9} {
			if nq > sTab.Rows() {
				break
			}
			rowIDs := make([]int, nq)
			qm := matrix.New(nq, sTab.Cols())
			for i := range rowIDs {
				rowIDs[i] = (i * 2) % sTab.Rows()
				copy(qm.Row(i), sTab.Row(rowIDs[i]))
			}
			solo := func(search func(q *matrix.Dense) (matrix.TopK, error)) []matrix.TopK {
				out := make([]matrix.TopK, nq)
				for i := range rowIDs {
					q, err := matrix.NewFromData(1, sTab.Cols(), sTab.Row(rowIDs[i]))
					if err != nil {
						t.Fatalf("%s: NewFromData: %v", tc.Name, err)
					}
					if out[i], err = search(q); err != nil {
						t.Fatalf("%s: solo query %d: %v", tc.Name, i, err)
					}
				}
				return out
			}
			compare := func(label string, batch, want []matrix.TopK) {
				for i := range want {
					if !topKsIdentical(batch[i], want[i]) {
						t.Fatalf("%s: %s nq=%d query %d (row %d): batched %v != solo %v",
							tc.Name, label, nq, i, rowIDs[i], batch[i], want[i])
					}
				}
			}

			got, err := ivf.Search(ctx, qm, k, nprobe)
			if err != nil {
				t.Fatalf("%s: batched Search: %v", tc.Name, err)
			}
			compare("ivf.Search", got, solo(func(q *matrix.Dense) (matrix.TopK, error) {
				r, err := ivf.Search(ctx, q, k, nprobe)
				if err != nil {
					return matrix.TopK{}, err
				}
				return r[0], nil
			}))

			got, err = ivf.SearchQuant(ctx, qm, k, nprobe, 0, true)
			if err != nil {
				t.Fatalf("%s: batched SearchQuant: %v", tc.Name, err)
			}
			compare("ivf.SearchQuant", got, solo(func(q *matrix.Dense) (matrix.TopK, error) {
				r, err := ivf.SearchQuant(ctx, q, k, nprobe, 0, true)
				if err != nil {
					return matrix.TopK{}, err
				}
				return r[0], nil
			}))

			got, err = qsrc.SearchRows(ctx, rowIDs, k)
			if err != nil {
				t.Fatalf("%s: SearchRows: %v", tc.Name, err)
			}
			want := make([]matrix.TopK, nq)
			for i := range rowIDs {
				if want[i], err = qsrc.SearchRow(ctx, rowIDs[i], k); err != nil {
					t.Fatalf("%s: SearchRow(%d): %v", tc.Name, rowIDs[i], err)
				}
			}
			compare("quant.SearchRows", got, want)
		}
	}
}
