// Package engine is the one place an engine is described and prepared.
//
// Knobs is the description: one flat, comparable value that a
// PipelineConfig resolves to, the planner emits on every candidate, and
// entserver fills from snapshot metadata. Knobs.Check is the one rule table
// saying which values are an engine; nothing else in the module restates a
// requires/excludes rule.
//
// Every caller — a fresh Pipeline.Prepare, a snapshot load (heap or mmapped),
// the out-of-core ReadAt fallback, and entserver's /align tiers — fills a
// Tables value one of three ways and asks it for the producer the knobs
// select:
//
//	table source    trained                  decoded               mapped
//	Fresh           IVF (lazily, per index)  —                     —
//	                SQ8 (quant.Encode)
//	FromSnapshot    reverse IVF if absent    IVF, SQ8 on request   tables, when the
//	                                                               snapshot came from
//	                                                               Reader.Mapped
//	FromReader      as FromSnapshot, or nothing on the ReadAt fallback
//	                (tables stay on disk behind chunked slab windows)
//
// Composition rule (Tables.Producer, over a checked value): Shards is the
// sharded producer; ANN is the IVF producer and Quant rides inside it (the
// slabs are scanned quantized); Quant alone scans exhaustively; with none of
// them the plain stream answers.
package engine

import (
	"context"
	"errors"
	"fmt"

	"entmatcher/internal/ann"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
	"entmatcher/internal/shard"
	"entmatcher/internal/sim"
	"entmatcher/internal/snapshot"
)

// Knobs describes an engine. The zero value is the dense score matrix; the
// JSON form (zero fields omitted) is what plans print.
type Knobs struct {
	// Streaming scores tile by tile and never materializes the matrix.
	Streaming bool `json:"streaming,omitempty"`
	// CandidateBudget > 0 matches on top-C candidate graphs (and streams).
	CandidateBudget int `json:"cand,omitempty"`
	// Clusters > 0 builds the graphs through an IVF index of that many
	// cells; AutoClusters asks for the index's own geometry instead
	// (ann.AutoClusters per direction, or a restored index's). NProbe and
	// Seed are ann.Config's, zero meaning its default.
	Clusters     int   `json:"clusters,omitempty"`
	AutoClusters bool  `json:"auto_clusters,omitempty"`
	NProbe       int   `json:"nprobe,omitempty"`
	Seed         int64 `json:"seed,omitempty"`
	// Quant ranks scans with SQ8 codes: pool over-fetch RerankFactor (0 means
	// quant.DefaultRerankFactor), survivors re-scored exactly unless NoRerank.
	Quant        bool `json:"quant,omitempty"`
	RerankFactor int  `json:"rerank_factor,omitempty"`
	NoRerank     bool `json:"no_rerank,omitempty"`
	// Shards > 0 builds the graphs per co-clustered shard.
	Shards int `json:"shards,omitempty"`
	// OutOfCore serves the tables from the snapshot file (FromReader).
	OutOfCore bool `json:"out_of_core,omitempty"`
}

// ANN reports whether the IVF producer is selected.
func (k Knobs) ANN() bool { return k.Clusters > 0 || k.AutoClusters }

// Streams reports whether the engine runs without the dense score matrix.
func (k Knobs) Streams() bool { return k.Streaming || k.CandidateBudget > 0 }

// ErrKnobs is wrapped by every rule Check reports.
var ErrKnobs = errors.New("engine: illegal knob combination")

// Check is the rule table: it reports the first rule k breaks under the
// metric, or nil when k is an engine. srcRows×tgtRows is the task shape the
// auto IVF geometry resolves against; pass 0×0 while it is unknown and that
// one rule waits for the call that knows it.
func (k Knobs) Check(metric sim.Metric, srcRows, tgtRows int) error {
	sparse, cosine := k.CandidateBudget > 0, metric == sim.Cosine
	auto := min(ann.AutoClusters(srcRows), ann.AutoClusters(tgtRows))
	for _, r := range []struct {
		broken bool
		format string
		args   []any
	}{
		{k.CandidateBudget < 0, "CandidateBudget must be non-negative, got %d", []any{k.CandidateBudget}},
		{k.Clusters < 0 || k.NProbe < 0, "ANN fields must be non-negative, got Clusters %d, NProbe %d", []any{k.Clusters, k.NProbe}},
		{k.RerankFactor < 0, "Quant.RerankFactor must be non-negative, got %d", []any{k.RerankFactor}},
		{k.Shards < 0, "Shards must be non-negative, got %d", []any{k.Shards}},
		{k.ANN() && !sparse, "ANN requires CandidateBudget > 0 (the index only accelerates candidate-graph construction)", nil},
		{k.ANN() && !cosine, "ANN requires the cosine metric (the index searches by inner product over normalized tables), got %v", []any{metric}},
		{k.Clusters > 0 && k.NProbe > k.Clusters, "ANN.NProbe %d exceeds ANN.Clusters %d", []any{k.NProbe, k.Clusters}},
		{k.AutoClusters && k.Clusters == 0 && srcRows > 0 && k.NProbe > auto, "ANN.NProbe %d exceeds the %d clusters the auto geometry resolves to for %d×%d tables (set Clusters explicitly, or lower NProbe)", []any{k.NProbe, auto, srcRows, tgtRows}},
		{k.Quant && !sparse, "Quant requires CandidateBudget > 0 (quantized scans only accelerate candidate-graph construction)", nil},
		{k.Quant && !cosine, "Quant requires the cosine metric (SQ8 codes approximate inner products over normalized tables), got %v", []any{metric}},
		{k.Shards > 0 && !sparse, "Shards requires CandidateBudget > 0 (only candidate-graph construction is sharded)", nil},
		{k.Shards > 0 && k.ANN(), "Shards and ANN are mutually exclusive (both replace the candidate-graph producer)", nil},
		{k.Shards > 0 && k.Quant, "Shards and Quant are mutually exclusive (per-shard quantized scans are not supported)", nil},
		{k.OutOfCore && k.ANN(), "OutOfCore is incompatible with ANN (reconstructing the IVF index materializes table-sized slabs)", nil},
	} {
		if r.broken {
			return fmt.Errorf("%w: "+r.format, append([]any{ErrKnobs}, r.args...)...)
		}
	}
	return nil
}

// Tables is the prepared state producers are built over. Share one value
// between producers to share its decoded indexes and code tables.
type Tables struct {
	// Stream scores the prepared tables and carries them: PreparedTables for
	// addressable (heap or mmapped) rows, TableViews for any.
	Stream *sim.Stream
	// Fwd and Rev are restored IVF indexes and Index the configuration they
	// were built with; nil Fwd means indexes train lazily from the knobs.
	Fwd, Rev *ann.IVF
	Index    ann.Config
	// SrcQ and TgtQ are the SQ8 encodings of the prepared tables, present
	// when the fill was asked for Quant.
	SrcQ, TgtQ *quant.Table
}

// Fresh prepares raw embedding tables: normalizes them into a stream and,
// with Quant set, encodes the SQ8 tables. IVF training is left to the first
// candidate-graph request (or an eager ExportIndexes).
func Fresh(ctx context.Context, src, tgt *matrix.Dense, metric sim.Metric, k Knobs) (*Tables, error) {
	stream, err := sim.NewStream(src, tgt, metric)
	if err != nil {
		return nil, err
	}
	t := &Tables{Stream: stream}
	if k.Quant {
		sTab, tTab := stream.PreparedTables()
		if t.SrcQ, err = quant.Encode(ctx, sTab); err != nil {
			return nil, err
		}
		if t.TgtQ, err = quant.Encode(ctx, tTab); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// FromSnapshot restores the tables of a validated snapshot — heap-loaded or
// a Reader.Mapped view — decoding the SQ8 and IVF sections the knobs ask
// for. A knob the snapshot cannot serve is snapshot.ErrMismatch, never a
// silent rebuild.
func FromSnapshot(ctx context.Context, snap *snapshot.Snapshot, k Knobs) (*Tables, error) {
	stream, err := sim.NewStreamPrepared(snap.SrcTable, snap.TgtTable, sim.Metric(snap.Meta.Metric))
	if err != nil {
		return nil, err
	}
	t := &Tables{Stream: stream}
	if k.Quant {
		if snap.SrcQuant == nil {
			return nil, fmt.Errorf("%w: run requests quantized scans but the snapshot holds no SQ8 tables (re-save with Quant configured)", snapshot.ErrMismatch)
		}
		// Table rebuilds re-validate every code slab; stay cancellable
		// between the heavy steps.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if t.SrcQ, err = quant.FromData(snap.SrcQuant); err != nil {
			return nil, err
		}
		if t.TgtQ, err = quant.FromData(snap.TgtQuant); err != nil {
			return nil, err
		}
	}
	if k.ANN() {
		if snap.FwdIndex == nil {
			return nil, fmt.Errorf("%w: run requests ANN candidates but the snapshot holds no index (re-save with ANN configured)", snapshot.ErrMismatch)
		}
		if k.Clusters > 0 && k.Clusters != snap.FwdIndex.K {
			return nil, fmt.Errorf("%w: run requests %d IVF clusters but the snapshot index was built with %d (re-save, or drop the cluster override)",
				snapshot.ErrMismatch, k.Clusters, snap.FwdIndex.K)
		}
		if k.NProbe > snap.FwdIndex.K {
			return nil, fmt.Errorf("%w: NProbe %d exceeds the snapshot index's %d clusters",
				snapshot.ErrMismatch, k.NProbe, snap.FwdIndex.K)
		}
		// IVF reconstruction re-validates every slab invariant (O(n) per index).
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if t.Fwd, err = ann.FromData(snap.FwdIndex); err != nil {
			return nil, err
		}
		if snap.RevIndex != nil {
			if t.Rev, err = ann.FromData(snap.RevIndex); err != nil {
				return nil, err
			}
		}
		t.Index = ann.Config(*snap.Meta.ANN)
	}
	return t, nil
}

// FromReader serves the tables from the open snapshot file: aliased into the
// address space where the platform can mmap — the stack then runs unchanged
// and bit-identically over file-backed pages — and through chunked-ReadAt
// slab windows otherwise (Stream.OutOfCore reports which). The tables are
// valid until r is closed. IVF sections are never decoded here: their slabs
// are table-sized, which is what serving from the file avoids.
func FromReader(ctx context.Context, r *snapshot.Reader, k Knobs) (*Tables, error) {
	snap, err := r.Mapped(false, k.Quant)
	if err == nil {
		return FromSnapshot(ctx, snap, k)
	}
	if !errors.Is(err, snapshot.ErrMmapUnsupported) {
		return nil, err
	}
	if k.Quant {
		return nil, fmt.Errorf("%w: Quant out-of-core needs the exact re-rank's addressable tables", snapshot.ErrMmapUnsupported)
	}
	src, err := r.Table(snapshot.SectionSrcTable)
	if err != nil {
		return nil, err
	}
	tgt, err := r.Table(snapshot.SectionTgtTable)
	if err != nil {
		return nil, err
	}
	stream, err := sim.NewStreamOOC(src, tgt, sim.Metric(r.Meta().Metric))
	if err != nil {
		return nil, err
	}
	return &Tables{Stream: stream}, nil
}

// Producer returns the tile source candidate-graph builders should run on
// for the knobs, which must pass Check (it is run here): after it the cases
// below cannot overlap except ANN with Quant. Every result streams exact
// tiles and blocks through t.Stream; only candidate-graph production differs.
func (t *Tables) Producer(k Knobs) (matrix.TileSource, error) {
	if err := k.Check(t.Stream.Metric(), 0, 0); err != nil {
		return nil, err
	}
	var p matrix.TileSource = t.Stream
	var err error
	src, tgt := t.Stream.PreparedTables()
	switch {
	case k.Shards > 0:
		srcR, tgtR := t.Stream.TableViews()
		p, err = shard.NewSource(t.Stream, srcR, tgtR, t.Stream.Metric(), shard.Config{Shards: k.Shards})
	case k.ANN():
		cfg := t.Index
		if t.Fwd == nil {
			cfg = ann.Config{Clusters: k.Clusters, Seed: k.Seed}
		}
		cfg.NProbe = k.NProbe
		var a *ann.Source
		a, err = ann.NewSourceWithIndexes(t.Stream, src, tgt, cfg, t.Fwd, t.Rev)
		if err == nil && k.Quant {
			err = a.EnableQuant(t.SrcQ, t.TgtQ, k.RerankFactor, !k.NoRerank)
		}
		p = a
	case k.Quant:
		p, err = quant.NewSource(t.Stream, src, tgt, t.SrcQ, t.TgtQ, k.RerankFactor, !k.NoRerank)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}
