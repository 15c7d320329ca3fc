package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"entmatcher/internal/ann"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
	"entmatcher/internal/shard"
	"entmatcher/internal/sim"
	"entmatcher/internal/snapshot"
)

const testClusters = 4

// unitTable returns rows×dim unit-normalized Gaussian rows.
func unitTable(rng *rand.Rand, rows, dim int) *matrix.Dense {
	m := matrix.New(rows, dim)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		var s float64
		for j := range row {
			row[j] = rng.NormFloat64()
			s += row[j] * row[j]
		}
		inv := 1 / math.Sqrt(s)
		for j := range row {
			row[j] *= inv
		}
	}
	return m
}

// testSnapshot builds a valid in-memory snapshot the way the pipeline's save
// path would, with the IVF and SQ8 sections on request.
func testSnapshot(t *testing.T, withIndex, withQuant bool) *snapshot.Snapshot {
	t.Helper()
	ctx := context.Background()
	const rows, dim = 40, 8
	rng := rand.New(rand.NewSource(11))
	src, tgt := unitTable(rng, rows, dim), unitTable(rng, rows, dim)
	names := func(prefix string) []string {
		out := make([]string, rows)
		for i := range out {
			out[i] = prefix + strconv.Itoa(i)
		}
		return out
	}
	snap := &snapshot.Snapshot{
		Meta:     snapshot.Meta{Tool: "test", Metric: uint32(sim.Cosine), SrcRows: rows, TgtRows: rows, Dim: dim},
		SrcTable: src, TgtTable: tgt,
		SrcVocab: names("s/"), TgtVocab: names("t/"),
	}
	if withIndex {
		fwd, err := ann.Build(ctx, tgt, ann.Config{Clusters: testClusters, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rev, err := ann.Build(ctx, src, ann.Config{Clusters: testClusters, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		snap.FwdIndex, snap.RevIndex = fwd.Export(), rev.Export()
		snap.Meta.ANN = &snapshot.ANNMeta{Clusters: testClusters, NProbe: testClusters, Seed: 1}
	}
	if withQuant {
		srcQ, err := quant.Encode(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		tgtQ, err := quant.Encode(ctx, tgt)
		if err != nil {
			t.Fatal(err)
		}
		snap.SrcQuant, snap.TgtQuant = srcQ.Export(), tgtQ.Export()
		snap.Meta.Quant = &snapshot.QuantMeta{RerankFactor: quant.DefaultRerankFactor, Rerank: true}
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("test snapshot invalid: %v", err)
	}
	return snap
}

// TestProducerComposition pins the composition rule in Tables.Producer over
// both fills (Fresh and FromSnapshot): Shards replaces the producer outright,
// ANN is the producer with Quant riding inside it, Quant alone scans
// exhaustively, and no knob leaves the plain stream.
func TestProducerComposition(t *testing.T) {
	ctx := context.Background()
	annCfg := &ann.Config{Clusters: testClusters, NProbe: 2, Seed: 1}
	quantCfg := &snapshot.QuantMeta{RerankFactor: quant.DefaultRerankFactor, Rerank: true}
	snap := testSnapshot(t, true, true)
	fills := map[string]func(Knobs) (*Tables, error){
		"fresh": func(k Knobs) (*Tables, error) {
			return Fresh(ctx, snap.SrcTable, snap.TgtTable, sim.Cosine, k)
		},
		"snapshot": func(k Knobs) (*Tables, error) { return FromSnapshot(ctx, snap, k) },
	}
	cases := []struct {
		name     string
		knobs    Knobs
		want     string // "stream", "shard", "ann" or "quant"
		annQuant bool   // for "ann": the IVF slabs are scanned quantized
	}{
		{name: "no knob", knobs: Knobs{}, want: "stream"},
		{name: "quant alone", knobs: Knobs{Quant: quantCfg}, want: "quant"},
		{name: "ann", knobs: Knobs{ANN: annCfg}, want: "ann"},
		{name: "ann+quant", knobs: Knobs{ANN: annCfg, Quant: quantCfg}, want: "ann", annQuant: true},
		{name: "shards", knobs: Knobs{Shards: 2}, want: "shard"},
		{name: "shards win over ann+quant", knobs: Knobs{ANN: annCfg, Quant: quantCfg, Shards: 2}, want: "shard"},
	}
	for fill, mk := range fills {
		for _, tc := range cases {
			t.Run(fill+"/"+tc.name, func(t *testing.T) {
				tables, err := mk(tc.knobs)
				if err != nil {
					t.Fatal(err)
				}
				p, err := tables.Producer(tc.knobs)
				if err != nil {
					t.Fatal(err)
				}
				switch got := p.(type) {
				case *sim.Stream:
					if tc.want != "stream" || got != tables.Stream {
						t.Fatalf("got the plain stream, want %s", tc.want)
					}
				case *shard.Source:
					if tc.want != "shard" {
						t.Fatalf("got *shard.Source, want %s", tc.want)
					}
				case *quant.Source:
					if tc.want != "quant" {
						t.Fatalf("got *quant.Source, want %s", tc.want)
					}
				case *ann.Source:
					if tc.want != "ann" {
						t.Fatalf("got *ann.Source, want %s", tc.want)
					}
					if np := got.Config().NProbe; np != annCfg.NProbe {
						t.Errorf("ann source probes %d cells, want the knob's %d", np, annCfg.NProbe)
					}
					ivf, err := got.ForwardIndex(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if ivf.HasQuant() != tc.annQuant {
						t.Errorf("forward index quantized = %v, want %v", ivf.HasQuant(), tc.annQuant)
					}
					if fill == "snapshot" && ivf != tables.Fwd {
						t.Error("ann source retrained instead of using the restored index")
					}
				default:
					t.Fatalf("unexpected producer %T", p)
				}
			})
		}
	}
}

// TestFromSnapshotMismatchDiagnostics pins the four ways a knob can ask for
// something the snapshot cannot serve: each is snapshot.ErrMismatch with a
// message naming the cause, never a silent rebuild.
func TestFromSnapshotMismatchDiagnostics(t *testing.T) {
	quantCfg := &snapshot.QuantMeta{Rerank: true}
	cases := []struct {
		name                 string
		withIndex, withQuant bool
		knobs                Knobs
		want                 string
	}{
		{"no SQ8 section", true, false, Knobs{Quant: quantCfg}, "no SQ8 tables"},
		{"no index", false, true, Knobs{ANN: &ann.Config{}}, "holds no index"},
		{"cluster override", true, true, Knobs{ANN: &ann.Config{Clusters: testClusters + 1}}, "built with 4"},
		{"nprobe over K", true, true, Knobs{ANN: &ann.Config{NProbe: testClusters + 1}}, "NProbe 5 exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tables, err := FromSnapshot(context.Background(), testSnapshot(t, tc.withIndex, tc.withQuant), tc.knobs)
			if !errors.Is(err, snapshot.ErrMismatch) {
				t.Fatalf("tables=%v err=%v, want snapshot.ErrMismatch", tables != nil, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the cause (want %q)", err, tc.want)
			}
		})
	}
}
