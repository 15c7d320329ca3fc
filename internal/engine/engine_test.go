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

// TestProducerComposition is the rule table's test, over both fills (Fresh
// and FromSnapshot): one row per rule — Producer refuses the value with
// ErrKnobs and the rule's message — and one row per legal combination, which
// must compose as documented: Shards is the sharded producer, ANN the IVF
// producer with Quant riding inside it, Quant alone scans exhaustively, and
// no knob leaves the plain stream. Every producer's Block is the stream's,
// bit for bit.
func TestProducerComposition(t *testing.T) {
	ctx := context.Background()
	const nprobe = 2
	sparse := Knobs{CandidateBudget: 8}
	with := func(edit func(*Knobs)) Knobs {
		k := sparse
		edit(&k)
		return k
	}
	annK := with(func(k *Knobs) { k.Clusters, k.NProbe, k.Seed = testClusters, nprobe, 1 })
	quantK := with(func(k *Knobs) { k.Quant, k.RerankFactor = true, quant.DefaultRerankFactor })
	annQuantK := annK
	annQuantK.Quant, annQuantK.RerankFactor = true, quant.DefaultRerankFactor

	snap := testSnapshot(t, true, true)
	euclid := *snap
	euclid.Meta.Metric = uint32(sim.Euclidean)
	fills := map[string]func(Knobs, sim.Metric) (*Tables, error){
		"fresh": func(k Knobs, m sim.Metric) (*Tables, error) {
			return Fresh(ctx, snap.SrcTable, snap.TgtTable, m, k)
		},
		"snapshot": func(k Knobs, m sim.Metric) (*Tables, error) {
			if m != sim.Cosine {
				return FromSnapshot(ctx, &euclid, k)
			}
			return FromSnapshot(ctx, snap, k)
		},
	}
	cases := []struct {
		name     string
		knobs    Knobs
		metric   sim.Metric
		want     string // "stream", "shard", "ann" or "quant"; or
		reject   string // the broken rule's message
		annQuant bool   // for "ann": the IVF slabs are scanned quantized
	}{
		{name: "no knob", knobs: Knobs{}, want: "stream"},
		{name: "streaming", knobs: Knobs{Streaming: true}, want: "stream"},
		{name: "sparse", knobs: sparse, want: "stream"},
		{name: "quant alone", knobs: quantK, want: "quant"},
		{name: "quant, no rerank", knobs: with(func(k *Knobs) { k.Quant, k.NoRerank = true, true }), want: "quant"},
		{name: "ann", knobs: annK, want: "ann"},
		{name: "ann+quant", knobs: annQuantK, want: "ann", annQuant: true},
		{name: "shards", knobs: with(func(k *Knobs) { k.Shards = 2 }), want: "shard"},
		{name: "shards, euclidean", knobs: with(func(k *Knobs) { k.Shards = 2 }), metric: sim.Euclidean, want: "shard"},

		{name: "negative cand", knobs: Knobs{CandidateBudget: -1}, reject: "CandidateBudget must be non-negative, got -1"},
		{name: "negative ann field", knobs: with(func(k *Knobs) { k.Clusters, k.NProbe = testClusters, -1 }), reject: "ANN fields must be non-negative"},
		{name: "negative rerank factor", knobs: with(func(k *Knobs) { k.Quant, k.RerankFactor = true, -1 }), reject: "Quant.RerankFactor must be non-negative, got -1"},
		{name: "negative shards", knobs: with(func(k *Knobs) { k.Shards = -1 }), reject: "Shards must be non-negative, got -1"},
		{name: "ann without cand", knobs: Knobs{Clusters: testClusters}, reject: "ANN requires CandidateBudget > 0"},
		{name: "auto ann without cand", knobs: Knobs{AutoClusters: true}, reject: "ANN requires CandidateBudget > 0"},
		{name: "ann, euclidean", knobs: annK, metric: sim.Euclidean, reject: "ANN requires the cosine metric"},
		{name: "nprobe over clusters", knobs: with(func(k *Knobs) { k.Clusters, k.NProbe = testClusters, testClusters+1 }), reject: "ANN.NProbe 5 exceeds ANN.Clusters 4"},
		{name: "quant without cand", knobs: Knobs{Quant: true}, reject: "Quant requires CandidateBudget > 0"},
		{name: "quant, euclidean", knobs: quantK, metric: sim.Euclidean, reject: "Quant requires the cosine metric"},
		{name: "shards without cand", knobs: Knobs{Shards: 2}, reject: "Shards requires CandidateBudget > 0"},
		{name: "shards with ann", knobs: with(func(k *Knobs) { k.Shards, k.Clusters = 2, testClusters }), reject: "Shards and ANN are mutually exclusive"},
		{name: "shards with quant", knobs: with(func(k *Knobs) { k.Shards, k.Quant = 2, true }), reject: "Shards and Quant are mutually exclusive"},
		{name: "shards with ann+quant", knobs: with(func(k *Knobs) { *k = annQuantK; k.Shards = 2 }), reject: "Shards and ANN are mutually exclusive"},
		{name: "out-of-core ann", knobs: with(func(k *Knobs) { *k = annK; k.OutOfCore = true }), reject: "OutOfCore is incompatible with ANN"},
	}
	for fill, mk := range fills {
		for _, tc := range cases {
			t.Run(fill+"/"+tc.name, func(t *testing.T) {
				fillKnobs := tc.knobs
				if tc.reject != "" {
					// The fills do not judge a value; give them one they can
					// serve so the row reaches Producer.
					fillKnobs = Knobs{}
				}
				tables, err := mk(fillKnobs, tc.metric)
				if err != nil {
					t.Fatal(err)
				}
				p, err := tables.Producer(tc.knobs)
				if tc.reject != "" {
					if !errors.Is(err, ErrKnobs) || !strings.Contains(err.Error(), tc.reject) {
						t.Fatalf("Producer = %T, %v; want ErrKnobs naming %q", p, err, tc.reject)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				rowIDs, colIDs := []int{5, 0, 39, 5}, []int{3, 38, 0}
				want, err := tables.Stream.Block(ctx, rowIDs, colIDs)
				if err != nil {
					t.Fatal(err)
				}
				if block, err := p.Block(ctx, rowIDs, colIDs); err != nil || !block.EqualBits(want) {
					t.Fatalf("%T.Block differs from the stream's (err %v)", p, err)
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
					if np := got.Config().NProbe; np != nprobe {
						t.Errorf("ann source probes %d cells, want the knob's %d", np, nprobe)
					}
					// BuildIndexes trains the index the first forward graph
					// then uses, and ForwardIndex hands that one out.
					if err := got.BuildIndexes(ctx, false); err != nil {
						t.Fatal(err)
					}
					ivf, err := got.ForwardIndex(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := matrix.BuildCandGraph(ctx, got, sparse.CandidateBudget); err != nil {
						t.Fatal(err)
					}
					if after, err := got.ForwardIndex(ctx); err != nil || after != ivf {
						t.Errorf("the forward graph built another index than BuildIndexes (err %v)", err)
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

// TestCheckAutoGeometry pins the one shape-dependent rule: an NProbe past
// what the auto IVF geometry resolves to — the smaller of the two
// directions' √rows — is refused once the shape is known, and only then.
func TestCheckAutoGeometry(t *testing.T) {
	k := Knobs{CandidateBudget: 8, AutoClusters: true, NProbe: 7}
	if err := k.Check(sim.Cosine, 0, 0); err != nil {
		t.Fatalf("shape unknown: %v", err)
	}
	if err := k.Check(sim.Cosine, 49, 100); err != nil {
		t.Fatalf("7 probes over min(7, 10) cells: %v", err)
	}
	err := k.Check(sim.Cosine, 100, 36)
	if !errors.Is(err, ErrKnobs) || !strings.Contains(err.Error(), "exceeds the 6 clusters the auto geometry resolves to for 100×36") {
		t.Fatalf("7 probes over min(10, 6) cells: %v", err)
	}
}

// TestFromSnapshotMismatchDiagnostics pins the four ways a knob can ask for
// something the snapshot cannot serve: each is snapshot.ErrMismatch with a
// message naming the cause, never a silent rebuild.
func TestFromSnapshotMismatchDiagnostics(t *testing.T) {
	cases := []struct {
		name                 string
		withIndex, withQuant bool
		knobs                Knobs
		want                 string
	}{
		{"no SQ8 section", true, false, Knobs{Quant: true}, "no SQ8 tables"},
		{"no index", false, true, Knobs{AutoClusters: true}, "holds no index"},
		{"cluster override", true, true, Knobs{Clusters: testClusters + 1}, "built with 4"},
		{"nprobe over K", true, true, Knobs{AutoClusters: true, NProbe: testClusters + 1}, "NProbe 5 exceeds"},
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
