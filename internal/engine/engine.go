// Package engine is the one place an engine stack is prepared. Every caller
// — a fresh Pipeline.Prepare, a snapshot load (heap or mmapped), the
// out-of-core ReadAt fallback, and entserver's /align tiers — fills a Tables
// value one of three ways and asks it for the producer the configured knobs
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
// Composition rule (Tables.Producer): Shards replaces the producer outright;
// otherwise ANN is the producer and Quant rides inside it (the IVF slabs are
// scanned quantized); Quant alone scans exhaustively; with no knob set the
// plain stream answers.
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

// Knobs is the resolved engine selection. Validation of knob combinations
// belongs to the caller's configuration layer (PipelineConfig.Validate).
type Knobs struct {
	// ANN selects the IVF producer. Over restored indexes only NProbe is a
	// query-time choice; the geometry comes from the snapshot.
	ANN *ann.Config
	// Quant selects SQ8 scans: pool over-fetch factor (<= 0 means
	// quant.DefaultRerankFactor) and whether survivors are re-scored exactly
	// — the form a snapshot records them in.
	Quant *snapshot.QuantMeta
	// Shards > 0 selects the sharded producer.
	Shards int
}

// Tables is the prepared state producers are built over. Share one value
// between producers to share its decoded indexes and code tables.
type Tables struct {
	// Stream scores the prepared tables and carries them: PreparedTables for
	// addressable (heap or mmapped) rows, TableViews for any.
	Stream *sim.Stream
	// Fwd and Rev are restored IVF indexes and Index the configuration they
	// were built with; nil Fwd means indexes train lazily from Knobs.ANN.
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
	if k.Quant != nil {
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
	if k.Quant != nil {
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
	if k.ANN != nil {
		if snap.FwdIndex == nil {
			return nil, fmt.Errorf("%w: run requests ANN candidates but the snapshot holds no index (re-save with ANN configured)", snapshot.ErrMismatch)
		}
		if k.ANN.Clusters > 0 && k.ANN.Clusters != snap.FwdIndex.K {
			return nil, fmt.Errorf("%w: run requests %d IVF clusters but the snapshot index was built with %d (re-save, or drop the cluster override)",
				snapshot.ErrMismatch, k.ANN.Clusters, snap.FwdIndex.K)
		}
		if k.ANN.NProbe > snap.FwdIndex.K {
			return nil, fmt.Errorf("%w: NProbe %d exceeds the snapshot index's %d clusters",
				snapshot.ErrMismatch, k.ANN.NProbe, snap.FwdIndex.K)
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
	snap, err := r.Mapped(false, k.Quant != nil)
	if err == nil {
		return FromSnapshot(ctx, snap, k)
	}
	if !errors.Is(err, snapshot.ErrMmapUnsupported) {
		return nil, err
	}
	if k.Quant != nil {
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
// for the given knobs. Every result streams exact tiles and blocks through
// t.Stream; only candidate-graph production differs.
func (t *Tables) Producer(k Knobs) (matrix.TileSource, error) {
	var p matrix.TileSource = t.Stream
	var err error
	src, tgt := t.Stream.PreparedTables()
	switch {
	case k.Shards > 0:
		srcR, tgtR := t.Stream.TableViews()
		p, err = shard.NewSource(t.Stream, srcR, tgtR, t.Stream.Metric(), shard.Config{Shards: k.Shards})
	case k.ANN != nil:
		cfg := *k.ANN
		if t.Fwd != nil {
			cfg = t.Index
			cfg.NProbe = k.ANN.NProbe
		}
		var a *ann.Source
		a, err = ann.NewSourceWithIndexes(t.Stream, src, tgt, cfg, t.Fwd, t.Rev)
		if err == nil && k.Quant != nil {
			err = a.EnableQuant(t.SrcQ, t.TgtQ, k.Quant.RerankFactor, k.Quant.Rerank)
		}
		p = a
	case k.Quant != nil:
		p, err = quant.NewSource(t.Stream, src, tgt, t.SrcQ, t.TgtQ, k.Quant.RerankFactor, k.Quant.Rerank)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}
