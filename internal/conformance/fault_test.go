package conformance

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"entmatcher/internal/fault"
	"entmatcher/internal/matrix"
	"entmatcher/internal/shard"
	"entmatcher/internal/sim"
)

// slabBytes is a table in the snapshot slab encoding (little-endian float64,
// row-major), the file a matrix.SlabTable reads.
func slabBytes(m *matrix.Dense) []byte {
	buf := make([]byte, 8*len(m.Data()))
	for i, v := range m.Data() {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

func slabTable(t *testing.T, r io.ReaderAt, m *matrix.Dense) *matrix.SlabTable {
	t.Helper()
	st, err := matrix.NewSlabTable(r, 0, m.Rows(), m.Cols())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// tileCounter counts the tiles a pass delivered before it ended.
type tileCounter struct{ tiles int }

func (c *tileCounter) ConsumeTile(int, int, *matrix.Dense) { c.tiles++ }

// TestSlabFailureMidPass is the out-of-core fault contract (ROADMAP 15):
// over disk-backed tables, a healthy slab streams exactly the resident tiles
// and blocks, and a slab that starts failing under a running pass ends
// StreamTiles, Block and sharded ProduceParts with matrix.ErrSlab and nothing
// else — no parts, no scores computed from a short read.
func TestSlabFailureMidPass(t *testing.T) {
	ctx := context.Background()
	for _, tc := range annCases(suiteSeed) {
		resident, err := sim.NewStream(tc.Src, tc.Tgt, sim.Cosine, sim.WithTileShape(8, 8))
		if err != nil {
			t.Fatalf("%s: NewStream: %v", tc.Name, err)
		}
		sTab, tTab := resident.PreparedTables()
		rows, cols := resident.Dims()
		rowIDs, colIDs := []int{0, rows - 1, rows / 2, 1 % rows}, make([]int, cols)
		for j := range colIDs {
			colIDs[j] = j
		}
		open := func(tgtInj fault.IOInjection) *sim.Stream {
			src := slabTable(t, bytes.NewReader(slabBytes(sTab)), sTab)
			tgt := slabTable(t, fault.NewReaderAt(bytes.NewReader(slabBytes(tTab)), tgtInj), tTab)
			st, err := sim.NewStreamOOC(src, tgt, sim.Cosine, sim.WithTileShape(8, 8))
			if err != nil {
				t.Fatalf("%s: NewStreamOOC: %v", tc.Name, err)
			}
			if !st.OutOfCore() {
				t.Fatalf("%s: slab-backed stream is not out of core", tc.Name)
			}
			return st
		}

		healthy := open(fault.NoInjection())
		want, got := &tileGrid{dst: matrix.New(rows, cols)}, &tileGrid{dst: matrix.New(rows, cols)}
		if err := resident.StreamTiles(ctx, want); err != nil {
			t.Fatal(err)
		}
		if err := healthy.StreamTiles(ctx, got); err != nil {
			t.Fatalf("%s: healthy slab: %v", tc.Name, err)
		}
		wantBlk, err := resident.Block(ctx, rowIDs, colIDs)
		if err != nil {
			t.Fatal(err)
		}
		gotBlk, err := healthy.Block(ctx, rowIDs, colIDs)
		if err != nil {
			t.Fatalf("%s: healthy slab Block: %v", tc.Name, err)
		}
		for _, pair := range [][2]*matrix.Dense{{want.dst, got.dst}, {wantBlk, gotBlk}} {
			for p, w := range pair[0].Data() {
				if g := pair[1].Data()[p]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: healthy slab element %d: %x != resident %x", tc.Name, p, g, w)
				}
			}
		}

		// A bad sector in the middle of the target slab: target windows
		// before it read fine, so the pass is under way when it fails.
		bad := fault.NoInjection()
		bad.ErrAt = int64(len(slabBytes(tTab)) / 2)
		failing := open(bad)
		seen := new(tileCounter)
		if err := failing.StreamTiles(ctx, seen); !errors.Is(err, matrix.ErrSlab) {
			t.Errorf("%s: StreamTiles over a failing slab: %v", tc.Name, err)
		}
		if total := ((rows + 7) / 8) * ((cols + 7) / 8); cols > 16 && (seen.tiles == 0 || seen.tiles >= total) {
			t.Errorf("%s: failure was not mid-pass: %d of %d tiles delivered", tc.Name, seen.tiles, total)
		}
		if blk, err := failing.Block(ctx, rowIDs, colIDs); !errors.Is(err, matrix.ErrSlab) || blk != nil {
			t.Errorf("%s: Block over a failing slab: %v, %v", tc.Name, blk, err)
		}
		for _, shards := range []int{1, 2} {
			srcV, tgtV := failing.TableViews()
			sharded, err := shard.NewSource(failing, srcV, tgtV, sim.Cosine, shard.Config{Shards: shards, Seed: 1})
			if err != nil {
				t.Fatalf("%s: shard.NewSource: %v", tc.Name, err)
			}
			parts, err := sharded.ProduceParts(ctx, matrix.GraphRequest{C: 3, CRev: 3, KCol: 2})
			if !errors.Is(err, matrix.ErrSlab) {
				t.Errorf("%s: Shards=%d ProduceParts over a failing slab: %v", tc.Name, shards, err)
			}
			if parts.Fwd != nil || parts.Rev != nil || parts.ColMeans != nil {
				t.Errorf("%s: Shards=%d ProduceParts returned parts alongside %v", tc.Name, shards, err)
			}
		}
	}
}
