package ann

import (
	"context"
	"fmt"

	"entmatcher/internal/matrix"
)

// IVFData is the serializable flat form of a built IVF index — exactly the
// slabs the index queries at runtime, so an exported-then-restored index
// answers every search bit-identically to the original. The snapshot layer
// (internal/snapshot) persists these fields; cnormHalf is derived and
// recomputed on restore.
type IVFData struct {
	Dim, N, K int
	Centroids []float64 // K×Dim quantizer, row-major
	ListPtr   []int64   // K+1 cell boundaries into IDs/Vecs
	IDs       []int32   // N corpus row ids, ascending within a cell
	Vecs      []float64 // N×Dim corpus rows in slab order
}

// Export returns the index's flat serializable form. The returned slices
// alias the index's internal slabs; callers must not mutate them.
func (ivf *IVF) Export() *IVFData {
	return &IVFData{
		Dim:       ivf.dim,
		N:         ivf.n,
		K:         ivf.k,
		Centroids: ivf.centroids.Data(),
		ListPtr:   ivf.scan.Bounds,
		IDs:       ivf.scan.IDs,
		Vecs:      ivf.scan.Vecs,
	}
}

// FromData reconstructs an index from its flat form, re-deriving cnormHalf.
// Every structural invariant is re-validated — slab lengths, monotone
// non-negative cell boundaries covering exactly N points, ids in range and
// ascending within each cell — so a corrupted or hand-rolled IVFData is
// rejected here rather than producing silently wrong search results.
func FromData(d *IVFData) (*IVF, error) {
	if d == nil {
		return nil, fmt.Errorf("ann: nil index data")
	}
	if d.Dim <= 0 || d.N <= 0 || d.K <= 0 {
		return nil, fmt.Errorf("ann: invalid index shape dim=%d n=%d k=%d", d.Dim, d.N, d.K)
	}
	if len(d.Centroids) != d.K*d.Dim {
		return nil, fmt.Errorf("ann: centroid slab holds %d values, want %d", len(d.Centroids), d.K*d.Dim)
	}
	if len(d.ListPtr) != d.K+1 {
		return nil, fmt.Errorf("ann: list pointers hold %d entries, want %d", len(d.ListPtr), d.K+1)
	}
	if len(d.IDs) != d.N {
		return nil, fmt.Errorf("ann: id slab holds %d entries, want %d", len(d.IDs), d.N)
	}
	if len(d.Vecs) != d.N*d.Dim {
		return nil, fmt.Errorf("ann: vector slab holds %d values, want %d", len(d.Vecs), d.N*d.Dim)
	}
	if d.ListPtr[0] != 0 || d.ListPtr[d.K] != int64(d.N) {
		return nil, fmt.Errorf("ann: list pointers span [%d, %d], want [0, %d]", d.ListPtr[0], d.ListPtr[d.K], d.N)
	}
	for c := 0; c < d.K; c++ {
		if d.ListPtr[c+1] < d.ListPtr[c] {
			return nil, fmt.Errorf("ann: cell %d has negative extent (%d > %d)", c, d.ListPtr[c], d.ListPtr[c+1])
		}
		for p := d.ListPtr[c]; p < d.ListPtr[c+1]; p++ {
			id := d.IDs[p]
			if id < 0 || int(id) >= d.N {
				return nil, fmt.Errorf("ann: cell %d holds out-of-range corpus id %d", c, id)
			}
			if p > d.ListPtr[c] && d.IDs[p-1] >= id {
				return nil, fmt.Errorf("ann: cell %d ids not strictly ascending at slot %d", c, p)
			}
		}
	}
	cent, err := matrix.NewFromData(d.K, d.Dim, d.Centroids)
	if err != nil {
		return nil, fmt.Errorf("ann: centroid slab: %w", err)
	}
	return newIVF(cent, d.ListPtr, d.IDs, d.Vecs), nil
}

// ExportIndexes builds (if needed) and exports the source's indexes in
// their flat serializable form — the snapshot writer's hook. rev is nil
// unless reverse is set.
func (s *Source) ExportIndexes(ctx context.Context, reverse bool) (fwd, rev *IVFData, err error) {
	fivf, err := s.fwdIndex(ctx)
	if err != nil {
		return nil, nil, err
	}
	fwd = fivf.Export()
	if reverse {
		rivf, err := s.revIndex(ctx)
		if err != nil {
			return nil, nil, err
		}
		rev = rivf.Export()
	}
	return fwd, rev, nil
}

// NewSourceWithIndexes is NewSource with pre-built (e.g. snapshot-restored)
// indexes installed, so the first candidate-graph request serves from the
// loaded slabs instead of re-training the quantizers. rev may be nil; it is
// then built lazily on first reverse-graph demand as usual. The indexes must
// cover the given tables: fwd over tgtTab, rev over srcTab.
func NewSourceWithIndexes(inner matrix.TileSource, srcTab, tgtTab *matrix.Dense, cfg Config, fwd, rev *IVF) (*Source, error) {
	s, err := NewSource(inner, srcTab, tgtTab, cfg)
	if err != nil {
		return nil, err
	}
	if fwd != nil {
		if fwd.n != tgtTab.Rows() || fwd.dim != tgtTab.Cols() {
			return nil, fmt.Errorf("ann: forward index covers %d×%d but target table is %d×%d",
				fwd.n, fwd.dim, tgtTab.Rows(), tgtTab.Cols())
		}
		s.state.fwd = fwd
	}
	if rev != nil {
		if rev.n != srcTab.Rows() || rev.dim != srcTab.Cols() {
			return nil, fmt.Errorf("ann: reverse index covers %d×%d but source table is %d×%d",
				rev.n, rev.dim, srcTab.Rows(), srcTab.Cols())
		}
		s.state.rev = rev
	}
	return s, nil
}
