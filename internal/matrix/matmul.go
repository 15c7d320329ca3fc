package matrix

// Dense products. Mul is the general product; MulTransposed is the
// similarity-shaped a×bᵀ, a thin caller of the cosine block kernel in
// kernels.go — the one loop behind every cosine score.

import (
	"context"
	"fmt"
)

// Mul returns the matrix product a×b.
// a must be (m×k) and b (k×n); the result is (m×n).
func Mul(a, b *Dense) (*Dense, error) {
	return MulContext(context.Background(), a, b)
}

// MulContext is Mul with cooperative cancellation: the row-parallel kernel
// re-checks ctx between row chunks and returns ctx.Err() instead of a matrix
// once the context is done.
func MulContext(ctx context.Context, a, b *Dense) (*Dense, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: %d×%d · %d×%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, b.cols)
	n := b.cols
	err := parallelRowsCtx(ctx, a.rows, func(i int) {
		arow := a.Row(i)
		orow := out.Row(i)
		// ikj loop order: stream through b rows, accumulate into the output
		// row. This is the cache-friendly ordering for row-major storage.
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*n : (k+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MulTransposed returns a×bᵀ without materializing the transpose.
// a must be (m×d) and b (n×d); the result is (m×n) — the shape of a pairwise
// similarity computation between two embedding tables. It is the cosine
// block kernel (MulTransposedBlockInto) over the whole product, so every
// element is the bits a streamed cosine tile holds for the pair; the
// conformance suite pins it to the per-pair Dot4.
func MulTransposed(a, b *Dense) (*Dense, error) {
	if a.cols != b.cols {
		return nil, fmt.Errorf("%w: %d×%d · (%d×%d)ᵀ", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, b.rows)
	MulTransposedBlockInto(out, a, b, 0, 0)
	return out, nil
}

// Dot returns the inner product of two equal-length vectors through the
// shared streaming kernel (Dot4), identical bits to every streamed cosine
// score on every build. It panics if the lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("matrix: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	return dot(a, b)
}
