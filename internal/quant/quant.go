// Package quant provides SQ8 scalar quantization of prepared embedding
// tables: every dimension is mapped to int8 codes by a per-dimension
// symmetric scale, shrinking the scan tables 8× (1 byte per value instead of
// 8) and letting the hot candidate-scan loop run on an int8 dot kernel that
// processes 32 values per SIMD step — one instruction on AVX512-VNNI
// machines, seven on AVX2 ones — instead of the float64 kernel's 4 (dot.go:
// three tiers, chosen by the machine, all returning the scalar loop's bits).
//
// Quantized scores are approximations, so the scan is two-phase: rank every
// candidate with the int8 kernel, keep an over-fetched pool (rerank_factor ×
// C, plus every candidate tied with the pool boundary; select.go finds it in
// linear time), then re-score just the pool with the exact float64 kernel
// (matrix.Dot4) and select the final top-C from those exact scores. The float64 path always gets the last word,
// so the emitted selections match the exhaustive scan bit-for-bit whenever
// the pool covers the true top-C — which the boundary-tie rule guarantees in
// the degenerate all-ties regimes where quantization collapses scores, and
// the over-fetch margin buys everywhere else (conformance-pinned on the
// adversarial embedding suite; see internal/conformance).
//
// The per-dimension table scales fold into the query instead of the codes:
// Σⱼ qⱼ·codeⱼ·scaleⱼ = Σⱼ (qⱼ·scaleⱼ)·codeⱼ, so QuantizeQuery quantizes the
// scale-folded query with one per-query scalar and the scan is a pure
// int8×int8 dot times one float — no per-dimension multiplies inside the
// loop.
//
// The package also hosts the scan core (Scanner, scan.go): the one grouped
// run-scanner under ann's IVF searches, float and quantized, and under
// Source's flat scans. It lives here because the walker needs both kernel
// families and quant is the lowest package that sees both (ann imports
// quant, quant imports matrix).
package quant

import (
	"context"
	"fmt"
	"math"

	"entmatcher/internal/matrix"
)

// DefaultRerankFactor is the pool over-fetch multiplier used when callers
// pass factor <= 0: the int8 phase keeps 4×C candidates (plus boundary ties)
// for the exact float64 re-rank. The rerank-factor sweep (EXPERIMENTS.md,
// "Engine sweeps") measured recall@64 = 1.000 at this factor on both uniform
// and clustered geometry; the benchmark harness reports it every run as
// quant.recall_at_c and fails if the quant graph differs from the exact one.
const DefaultRerankFactor = 4

// maxDim bounds the quantizable dimensionality so the int32 kernel
// accumulator cannot overflow: each int8×int8 product is at most 127·127 =
// 16129, and 2^16 of them stay below 2^31 — as do the VNNI tier's biased
// terms (255·127 per product, 128·127 per correction step).
const maxDim = 1 << 16

// Table is an SQ8-quantized embedding table: rows×dim int8 codes plus one
// float64 scale per dimension. code = round(x/scale) clamped to [-127, 127]
// with scale = maxAbs/127, so decode(code) = code·scale reconstructs every
// value to within scale/2 (the fuzzed round-trip bound). A dimension that is
// zero in every row gets scale 0 and all-zero codes. -128 is never produced,
// which keeps the kernel's overflow margin and gives FromData a cheap
// corruption tripwire.
type Table struct {
	rows, dim int
	codes     []int8    // rows×dim, row-major
	scales    []float64 // dim per-dimension scales, >= 0, finite
}

// Rows returns the number of encoded rows.
func (t *Table) Rows() int { return t.rows }

// Dim returns the encoded dimensionality.
func (t *Table) Dim() int { return t.dim }

// Row returns row i's codes; the slice aliases the table and must not be
// mutated.
func (t *Table) Row(i int) []int8 { return t.codes[i*t.dim : (i+1)*t.dim] }

// Scales returns the per-dimension scales; the slice aliases the table.
func (t *Table) Scales() []float64 { return t.scales }

// SizeBytes returns the heap footprint of the quantized table: the code slab
// plus the scales.
func (t *Table) SizeBytes() int64 {
	return int64(len(t.codes)) + int64(len(t.scales))*8
}

// Encode quantizes a prepared embedding table (for cosine: the
// row-normalized copy the similarity stream scores with, so that re-ranked
// scores carry the streamed bits). Values must be finite — the similarity
// gates upstream already guarantee this, but Encode re-checks so a Table can
// never hold garbage scales.
func Encode(ctx context.Context, data *matrix.Dense) (*Table, error) {
	if data == nil {
		return nil, fmt.Errorf("quant: nil table")
	}
	n, d := data.Rows(), data.Cols()
	if n == 0 || d == 0 {
		return nil, fmt.Errorf("quant: empty table (%d×%d)", n, d)
	}
	if d > maxDim {
		return nil, fmt.Errorf("quant: dimension %d exceeds the kernel's overflow bound %d", d, maxDim)
	}
	scales := make([]float64, d)
	for i := 0; i < n; i++ {
		row := data.Row(i)
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("quant: non-finite value %v at row %d dim %d", v, i, j)
			}
			if a := math.Abs(v); a > scales[j] {
				scales[j] = a
			}
		}
	}
	for j := range scales {
		scales[j] /= 127
	}
	t := &Table{rows: n, dim: d, codes: make([]int8, n*d), scales: scales}
	if err := matrix.ParallelRowsCtx(ctx, n, func(i int) {
		row := data.Row(i)
		dst := t.codes[i*d : (i+1)*d]
		for j, v := range row {
			dst[j] = quantizeOne(v, scales[j])
		}
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// quantizeOne maps one value to its int8 code under a symmetric scale.
// scale = maxAbs/127 keeps |v/scale| <= 127 up to division rounding, so the
// clamp only ever absorbs last-ulp spill.
func quantizeOne(v, scale float64) int8 {
	if scale == 0 {
		return 0
	}
	q := math.Round(v / scale)
	if q > 127 {
		q = 127
	}
	if q < -127 {
		q = -127
	}
	return int8(q)
}

// QuantizeQuery folds the table's per-dimension scales into a float64 query
// and quantizes the result with a single per-query scalar: dst[j] =
// round(q[j]·scale[j]/sq) with sq = maxⱼ|q[j]·scale[j]|/127. The returned sq
// turns an int8 kernel score back into an approximate inner product:
// approx(q, row i) ≈ sq · DotI8(dst, t.Row(i)). dst must have length Dim. A
// query whose folded form is all zero returns sq = 0 and all-zero codes
// (every approximate score ties at 0, which the boundary-tie pool rule turns
// into an exhaustive re-rank).
func (t *Table) QuantizeQuery(q []float64, dst []int8) (sq float64, err error) {
	if len(q) != t.dim || len(dst) != t.dim {
		return 0, fmt.Errorf("quant: query len %d, dst len %d, want %d", len(q), len(dst), t.dim)
	}
	var maxAbs float64
	for j, v := range q {
		if a := math.Abs(v * t.scales[j]); a > maxAbs {
			maxAbs = a
		}
	}
	if math.IsNaN(maxAbs) || math.IsInf(maxAbs, 0) {
		return 0, fmt.Errorf("quant: non-finite scale-folded query")
	}
	sq = maxAbs / 127
	for j, v := range q {
		dst[j] = quantizeOne(v*t.scales[j], sq)
	}
	return sq, nil
}

// TableData is the serializable flat form of a quantized table — exactly the
// slabs the scan kernels read, so a persisted-then-restored table scores
// every candidate bit-identically. The snapshot layer (internal/snapshot)
// persists these fields.
type TableData struct {
	Rows, Dim int
	Scales    []float64 // Dim per-dimension scales
	Codes     []int8    // Rows×Dim codes, row-major
}

// Export returns the table's flat serializable form. The returned slices
// alias the table's slabs; callers must not mutate them.
func (t *Table) Export() *TableData {
	return &TableData{Rows: t.rows, Dim: t.dim, Scales: t.scales, Codes: t.codes}
}

// FromData reconstructs a table from its flat form, re-validating every
// invariant the encoder establishes — shapes, finite non-negative scales,
// codes in [-127, 127] (the encoder never emits -128), and all-zero codes
// under a zero scale — so a corrupted or hand-rolled TableData is rejected
// here rather than skewing scan rankings silently.
func FromData(d *TableData) (*Table, error) {
	if d == nil {
		return nil, fmt.Errorf("quant: nil table data")
	}
	if d.Rows <= 0 || d.Dim <= 0 {
		return nil, fmt.Errorf("quant: invalid shape %d×%d", d.Rows, d.Dim)
	}
	if d.Dim > maxDim {
		return nil, fmt.Errorf("quant: dimension %d exceeds the kernel's overflow bound %d", d.Dim, maxDim)
	}
	if len(d.Scales) != d.Dim {
		return nil, fmt.Errorf("quant: %d scales for dimension %d", len(d.Scales), d.Dim)
	}
	if len(d.Codes) != d.Rows*d.Dim {
		return nil, fmt.Errorf("quant: code slab holds %d values, want %d", len(d.Codes), d.Rows*d.Dim)
	}
	for j, s := range d.Scales {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			return nil, fmt.Errorf("quant: invalid scale %v at dim %d", s, j)
		}
	}
	for p, c := range d.Codes {
		if c == -128 {
			return nil, fmt.Errorf("quant: code -128 at slot %d (encoder never emits it)", p)
		}
		if d.Scales[p%d.Dim] == 0 && c != 0 {
			return nil, fmt.Errorf("quant: nonzero code %d under zero scale at slot %d", c, p)
		}
	}
	return &Table{rows: d.Rows, dim: d.Dim, codes: d.Codes, scales: d.Scales}, nil
}
