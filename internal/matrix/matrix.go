// Package matrix provides the dense row-major float64 matrix kernel used by
// every embedding-matching algorithm in this repository.
//
// The matchers in internal/core operate exclusively on similarity matrices of
// shape (|source entities| × |target entities|). This package supplies the
// small set of primitives they need — argmax scans, top-k selection, row and
// column normalization, rank transforms — implemented with goroutine-chunked
// parallelism so that medium-scale matrices (tens of millions of cells)
// remain tractable on commodity machines.
//
// All operations that read a matrix treat it as immutable; operations that
// mutate are named with an explicit In-Place suffix or documented as such.
package matrix

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
)

// ctxErr is the cooperative-cancellation predicate: ctx.Err() plus a direct
// clock-vs-deadline comparison. On single-CPU systems a CPU-bound kernel can
// keep the runtime from firing context.WithTimeout's timer, leaving Err()
// nil past the deadline; the explicit comparison bounds that lag.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// Dense is a row-major dense matrix of float64 values.
//
// The zero value is an empty 0×0 matrix. Use New or NewFromData to construct
// non-empty matrices.
type Dense struct {
	rows, cols int
	data       []float64
}

// ErrShape is returned when matrix dimensions are incompatible with the
// requested operation.
var ErrShape = errors.New("matrix: incompatible shape")

// New returns a zero-initialized rows×cols matrix.
// It panics if either dimension is negative.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %d×%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewFromData wraps an existing slice as a rows×cols matrix without copying.
// The slice length must be exactly rows*cols.
func NewFromData(rows, cols int, data []float64) (*Dense, error) {
	if rows < 0 || cols < 0 || len(data) != rows*cols {
		return nil, fmt.Errorf("%w: data length %d for %d×%d", ErrShape, len(data), rows, cols)
	}
	return &Dense{rows: rows, cols: cols, data: data}, nil
}

// Reshape repoints m at an existing backing slice as a rows×cols matrix
// without copying, with the same validation as NewFromData. It lets tile
// producers reuse a single header across thousands of tiles instead of
// allocating one per tile.
func (m *Dense) Reshape(rows, cols int, data []float64) error {
	if rows < 0 || cols < 0 || len(data) != rows*cols {
		return fmt.Errorf("%w: data length %d for %d×%d", ErrShape, len(data), rows, cols)
	}
	m.rows, m.cols, m.data = rows, cols, data
	return nil
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j). Indices are not bounds-checked beyond
// the slice access itself.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set stores v at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns the i-th row as a sub-slice of the backing array.
// Mutating the returned slice mutates the matrix.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Data returns the backing slice (row-major). Mutations are visible.
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// SizeBytes returns the approximate heap footprint of the matrix payload.
func (m *Dense) SizeBytes() int64 { return int64(len(m.data)) * 8 }

// EqualBits reports whether m and o have the same shape and bit-identical
// payloads (IEEE-754 bit patterns, so NaNs compare by representation and
// -0 != +0). This is the equality the conformance and snapshot round-trip
// suites pin: not "close enough", the same bits.
func (m *Dense) EqualBits(o *Dense) bool {
	if o == nil || m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, v := range m.data {
		if math.Float64bits(v) != math.Float64bits(o.data[i]) {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Dense) Transpose() *Dense {
	out := New(m.cols, m.rows)
	// Blocked transpose for cache friendliness, parallelized over row blocks:
	// a row-block worker writes out[j][i] only for its own i range, so the
	// workers' output columns are disjoint.
	const bs = 64
	rowBlocks := (m.rows + bs - 1) / bs
	parallelChunks(rowBlocks, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			ib := b * bs
			imax := min(ib+bs, m.rows)
			for jb := 0; jb < m.cols; jb += bs {
				jmax := min(jb+bs, m.cols)
				for i := ib; i < imax; i++ {
					row := m.data[i*m.cols:]
					for j := jb; j < jmax; j++ {
						out.data[j*m.rows+i] = row[j]
					}
				}
			}
		}
	})
	return out
}

// Equal reports whether a and b have the same shape and identical elements.
func Equal(a, b *Dense) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if v != b.data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports whether a and b have the same shape and element-wise
// differences no larger than tol.
func EqualApprox(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// parallelRows invokes fn(i) for every row index, splitting work into
// contiguous chunks dispatched on the persistent worker pool when the matrix
// is large enough to amortize the scheduling cost.
func parallelRows(rows int, fn func(i int)) {
	parallelChunks(rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// cancelCheckStride is how many rows a worker processes between cooperative
// cancellation checks. A row of a similarity matrix is O(cols) work, so at
// typical widths (hundreds to tens of thousands of columns) the stride keeps
// the per-row overhead of ctx.Err() negligible while still bounding the
// response latency to a cancel at a few million floating-point operations.
const cancelCheckStride = 64

// parallelRowsCtx is parallelRows with cooperative cancellation: every worker
// re-checks ctx each cancelCheckStride rows and stops early once the context
// is done. When it returns a non-nil error (ctx.Err()), only a prefix of the
// rows may have been processed and any output must be discarded.
func parallelRowsCtx(ctx context.Context, rows int, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	parallelChunks(rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if (i-lo)%cancelCheckStride == 0 && ctxErr(ctx) != nil {
				return
			}
			fn(i)
		}
	})
	return ctxErr(ctx)
}

// ParallelRowsCtx exposes the pool-backed row-parallel driver with
// cooperative cancellation to sibling packages (internal/sim uses it for the
// distance kernels). Semantics are those of parallelRowsCtx: on a non-nil
// error only a prefix of rows may have been processed.
func ParallelRowsCtx(ctx context.Context, rows int, fn func(i int)) error {
	return parallelRowsCtx(ctx, rows, fn)
}

// Apply replaces every element x with fn(x), in place, and returns m.
func (m *Dense) Apply(fn func(float64) float64) *Dense {
	parallelRows(m.rows, func(i int) {
		row := m.Row(i)
		for j, v := range row {
			row[j] = fn(v)
		}
	})
	return m
}

// ApplyContext is Apply with cooperative cancellation. On a canceled or
// expired context it stops early and returns ctx.Err(); the matrix is then
// partially transformed and must be discarded by the caller.
func (m *Dense) ApplyContext(ctx context.Context, fn func(float64) float64) error {
	return parallelRowsCtx(ctx, m.rows, func(i int) {
		row := m.Row(i)
		for j, v := range row {
			row[j] = fn(v)
		}
	})
}

// Scale multiplies every element by s, in place, and returns m.
func (m *Dense) Scale(s float64) *Dense {
	return m.Apply(func(v float64) float64 { return v * s })
}

// SubRowVector subtracts v[j] from every element of column j, in place.
// len(v) must equal Cols().
func (m *Dense) SubRowVector(v []float64) error {
	if len(v) != m.cols {
		return fmt.Errorf("%w: row vector length %d for %d cols", ErrShape, len(v), m.cols)
	}
	parallelRows(m.rows, func(i int) {
		row := m.Row(i)
		for j := range row {
			row[j] -= v[j]
		}
	})
	return nil
}

// SubColVector subtracts v[i] from every element of row i, in place.
// len(v) must equal Rows().
func (m *Dense) SubColVector(v []float64) error {
	if len(v) != m.rows {
		return fmt.Errorf("%w: col vector length %d for %d rows", ErrShape, len(v), m.rows)
	}
	parallelRows(m.rows, func(i int) {
		row := m.Row(i)
		vi := v[i]
		for j := range row {
			row[j] -= vi
		}
	})
	return nil
}

// RowMax returns, for every row, the maximum value and the column index of
// the first occurrence of that maximum. Rows of width zero yield (-Inf, -1),
// and so do degenerate rows with no selectable maximum — every entry NaN or
// −Inf — because no entry ever compares strictly greater than the initial
// −Inf. Callers that turn the index into a prediction must treat -1 as
// abstention (GreedyDecider and the streaming assemblePairs both do); the
// identical initial state of RunningArgmax keeps the dense and streaming
// paths in agreement on such rows.
func (m *Dense) RowMax() (vals []float64, idx []int) {
	vals = make([]float64, m.rows)
	idx = make([]int, m.rows)
	parallelRows(m.rows, func(i int) {
		row := m.Row(i)
		best, bi := math.Inf(-1), -1
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		vals[i], idx[i] = best, bi
	})
	return vals, idx
}

// ColMax returns, for every column, the maximum value and the row index of
// the first occurrence of that maximum. Columns of height zero yield
// (-Inf, -1).
func (m *Dense) ColMax() (vals []float64, idx []int) {
	vals = make([]float64, m.cols)
	idx = make([]int, m.cols)
	for j := range vals {
		vals[j] = math.Inf(-1)
		idx[j] = -1
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if v > vals[j] {
				vals[j], idx[j] = v, i
			}
		}
	}
	return vals, idx
}

// Argmax returns the flat (row, col) location of the global maximum.
// For an empty matrix it returns (-1, -1).
func (m *Dense) Argmax() (int, int) {
	best := math.Inf(-1)
	bi, bj := -1, -1
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if v > best {
				best, bi, bj = v, i, j
			}
		}
	}
	return bi, bj
}

// RowSums returns the per-row sums.
func (m *Dense) RowSums() []float64 {
	out := make([]float64, m.rows)
	parallelRows(m.rows, func(i int) {
		var s float64
		for _, v := range m.Row(i) {
			s += v
		}
		out[i] = s
	})
	return out
}

// ColSums returns the per-column sums. The workers split the columns, not the
// rows, so every column still accumulates its rows in ascending row order and
// the sums are bit-identical to a serial row-major sweep at any worker count.
// Four rows are added per load and store of the accumulator; the additions of
// one column keep their order.
func (m *Dense) ColSums() []float64 {
	out := make([]float64, m.cols)
	parallelChunks(m.cols, func(lo, hi int) {
		acc := out[lo:hi]
		stripe := func(i int) []float64 { return m.data[i*m.cols+lo : i*m.cols+hi][:len(acc)] }
		i := 0
		for ; i+4 <= m.rows; i += 4 {
			r0, r1, r2, r3 := stripe(i), stripe(i+1), stripe(i+2), stripe(i+3)
			for j, a := range acc {
				acc[j] = a + r0[j] + r1[j] + r2[j] + r3[j]
			}
		}
		for ; i < m.rows; i++ {
			for j, v := range stripe(i) {
				acc[j] += v
			}
		}
	})
	return out
}

// ScaleColsNormalizeRowsInPlace multiplies column j by scale[j] and then
// divides every row by its sum so rows sum to 1, in one sweep; a nil scale
// stands for all ones (x·1 is x, exactly), and a row whose sum has absolute
// value below eps is left unnormalized to avoid division blow-up. The result
// is bit-identical to ScaleColsInPlace followed by a nil-scale call: the
// product is rounded to a double before it is summed (the conversion forbids
// fusing it into the addition), the row sum adds those doubles in ascending
// column order, and a row the eps guard skips keeps its scaled values. This is
// what lets Sinkhorn defer each column normalization into the next row pass.
//
// A row sum in column order is one chain of dependent additions, so a single
// row runs at the adder's latency; the sweep therefore sums four rows at a
// time — four independent chains, each in its own order.
func (m *Dense) ScaleColsNormalizeRowsInPlace(scale []float64, eps float64) {
	if scale == nil {
		scale = make([]float64, m.cols)
		for j := range scale {
			scale[j] = 1
		}
	}
	scale = scale[:m.cols]
	divide := func(r []float64, s float64) {
		if math.Abs(s) < eps {
			return
		}
		inv := 1 / s
		for j := range r {
			r[j] *= inv
		}
	}
	parallelChunks(m.rows, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			r0, r1, r2, r3 := m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3)
			s0, s1, s2, s3 := scaleSum4(r0, r1, r2, r3, scale)
			divide(r0, s0)
			divide(r1, s1)
			divide(r2, s2)
			divide(r3, s3)
		}
		for ; i < hi; i++ {
			r := m.Row(i)
			divide(r, scaleSum(r, scale))
		}
	})
}

// scaleSum multiplies r[j] by scale[j] in place and returns the sum of the
// products, added in ascending j order.
func scaleSum(r, scale []float64) (s float64) {
	r = r[:len(scale)]
	for j, c := range scale {
		t := float64(r[j] * c)
		r[j] = t
		s += t
	}
	return s
}

// scaleSum4 is scaleSum over four rows at once.
func scaleSum4(r0, r1, r2, r3, scale []float64) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(scale)], r1[:len(scale)], r2[:len(scale)], r3[:len(scale)]
	for j, c := range scale {
		t0, t1, t2, t3 := float64(r0[j]*c), float64(r1[j]*c), float64(r2[j]*c), float64(r3[j]*c)
		r0[j], r1[j], r2[j], r3[j] = t0, t1, t2, t3
		s0, s1, s2, s3 = s0+t0, s1+t1, s2+t2, s3+t3
	}
	return s0, s1, s2, s3
}

// ColNormalizers returns the factors that make every column sum to 1 under
// ScaleColsInPlace: 1/sum per column, and 1 where the sum's absolute value is
// below eps (such a column is left untouched).
func (m *Dense) ColNormalizers(eps float64) []float64 {
	inv := m.ColSums()
	for j, s := range inv {
		if math.Abs(s) < eps {
			inv[j] = 1
		} else {
			inv[j] = 1 / s
		}
	}
	return inv
}

// ScaleColsInPlace multiplies column j by scale[j]. len(scale) must be at
// least Cols().
func (m *Dense) ScaleColsInPlace(scale []float64) {
	parallelRows(m.rows, func(i int) {
		row := m.Row(i)
		for j, c := range scale[:len(row)] {
			row[j] *= c
		}
	})
}

// FindNonFinite returns the location of the first NaN or ±Inf element in
// row-major order, or ok=false when every element is finite. It is the
// validation primitive behind the pipeline's input gate: a single poisoned
// score silently corrupts every downstream argmax and normalization, so
// callers reject such matrices before matching.
func (m *Dense) FindNonFinite() (i, j int, ok bool) {
	for p, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return p / m.cols, p % m.cols, true
		}
	}
	return 0, 0, false
}

// SelectRows returns a new matrix whose i-th row is m's row ids[i].
// It panics if any index is out of range.
func (m *Dense) SelectRows(ids []int) *Dense {
	out := New(len(ids), m.cols)
	for i, id := range ids {
		if id < 0 || id >= m.rows {
			panic(fmt.Sprintf("matrix: SelectRows index %d out of %d rows", id, m.rows))
		}
		copy(out.Row(i), m.Row(id))
	}
	return out
}
