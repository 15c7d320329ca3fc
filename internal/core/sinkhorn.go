package core

import (
	"context"
	"fmt"
	"math"

	"entmatcher/internal/matrix"
)

// SinkhornTransform implements the Sinkhorn operation (Mena et al. 2018;
// the paper's § 3.5, Equation 3 and Algorithm 6): the exponentiated score
// matrix is alternately row- and column-normalized for L iterations,
// converging toward a doubly stochastic matrix that encodes a soft 1-to-1
// assignment. With finite L the constraint is only approximate, which is
// why the paper classifies Sink. as "partially" 1-to-1.
type SinkhornTransform struct {
	// L is the number of normalization iterations (the paper's l; its
	// Figure 7 sweeps it and settles on 100).
	L int
	// Tau is the softmax temperature applied before exponentiation:
	// exp(S/Tau). Smaller values sharpen the assignment and need fewer
	// iterations. The paper's implementation fixes the temperature; we
	// expose it with a calibrated default of 0.05 in NewSinkhorn.
	Tau float64
}

// Name returns "sinkhorn".
func (SinkhornTransform) Name() string { return "sinkhorn" }

// Transform returns the Sinkhorn-normalized matrix; s is not modified.
func (t SinkhornTransform) Transform(s *matrix.Dense) (*matrix.Dense, error) {
	return t.TransformContext(context.Background(), s)
}

// TransformContext is Transform with cooperative cancellation, checked once
// per normalization iteration (each iteration is one sweep of the matrix) and
// inside the exponentiation pass.
func (t SinkhornTransform) TransformContext(ctx context.Context, s *matrix.Dense) (*matrix.Dense, error) {
	if t.L < 0 {
		return nil, fmt.Errorf("sinkhorn: negative iteration count %d", t.L)
	}
	if t.Tau <= 0 {
		return nil, fmt.Errorf("sinkhorn: temperature must be positive, got %v", t.Tau)
	}
	// Numerical stabilization: subtract the global max before exp so the
	// largest exponent is zero. The working copy is written by the
	// exponentiation itself.
	gi, gj := s.Argmax()
	var gmax float64
	if gi >= 0 {
		gmax = s.At(gi, gj)
	}
	inv := 1 / t.Tau
	out, err := s.MapContext(ctx, func(v float64) float64 { return math.Exp((v - gmax) * inv) })
	if err != nil {
		return nil, err
	}
	// Each iteration is a row normalization followed by a column one, in one
	// sweep (matrix.SinkhornSweep): the sweep applies the column scale the
	// previous iteration computed (ones before the first: x·1 is x), normalizes
	// the rows and computes the next scale, so the column normalization is
	// deferred into the next iteration (bit-identical) and the last one is
	// applied after the loop. The two scale vectors alternate.
	const eps = 1e-300
	if t.L > 0 {
		scale, next := make([]float64, s.Cols()), make([]float64, s.Cols())
		for j := range scale {
			scale[j] = 1
		}
		for l := 0; l < t.L; l++ {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			out.SinkhornSweep(scale, next, eps)
			scale, next = next, scale
		}
		out.ScaleColsInPlace(scale)
	}
	return out, nil
}

// ExtraBytes is the exponentiated working copy (the paper: Sinkhorn "needs
// to store intermediate results") plus two column vectors — the column scale
// a sweep applies and the one it computes for the next — both live alongside
// the copy at peak, per the package accounting rule.
func (SinkhornTransform) ExtraBytes(rows, cols int) int64 {
	return matBytes(rows, cols) + int64(cols)*16
}

// DefaultSinkhornIterations is the paper's tuned l (its Figure 7 analysis:
// "we set l to 100 to reach the balance between effectiveness and
// efficiency").
const DefaultSinkhornIterations = 100

// DefaultSinkhornTau is the calibrated softmax temperature for cosine
// similarity inputs in [-1, 1].
const DefaultSinkhornTau = 0.05

// NewSinkhorn returns the Sink. algorithm with l normalization iterations
// and the default temperature. Time O(l·n²), space O(n²).
func NewSinkhorn(l int) *Composite {
	return NewComposite(SinkhornTransform{L: l, Tau: DefaultSinkhornTau}, GreedyDecider{}, "Sink.")
}
