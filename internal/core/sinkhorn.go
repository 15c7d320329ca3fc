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
// per normalization iteration (each iteration is two full sweeps of the
// matrix) and inside the exponentiation kernel.
func (t SinkhornTransform) TransformContext(ctx context.Context, s *matrix.Dense) (*matrix.Dense, error) {
	if t.L < 0 {
		return nil, fmt.Errorf("sinkhorn: negative iteration count %d", t.L)
	}
	if t.Tau <= 0 {
		return nil, fmt.Errorf("sinkhorn: temperature must be positive, got %v", t.Tau)
	}
	out := s.Clone()
	// Numerical stabilization: subtract the global max before exp so the
	// largest exponent is zero.
	gi, gj := s.Argmax()
	var gmax float64
	if gi >= 0 {
		gmax = s.At(gi, gj)
	}
	inv := 1 / t.Tau
	if err := out.ApplyContext(ctx, func(v float64) float64 { return math.Exp((v - gmax) * inv) }); err != nil {
		return nil, err
	}
	// Each iteration is a row normalization followed by a column one. The
	// column scale is not applied in a sweep of its own: colScale carries it
	// into the next iteration's row pass (bit-identical, see
	// ScaleColsNormalizeRowsInPlace), and the last one is applied after the
	// loop, so an iteration sweeps the matrix twice instead of three times.
	const eps = 1e-300
	var colScale []float64
	for l := 0; l < t.L; l++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		out.ScaleColsNormalizeRowsInPlace(colScale, eps)
		colScale = out.ColNormalizers(eps)
	}
	if colScale != nil {
		out.ScaleColsInPlace(colScale)
	}
	return out, nil
}

// ExtraBytes is the exponentiated working copy (the paper: Sinkhorn "needs
// to store intermediate results") plus two column vectors — the column scale
// the last row pass applied and the sums the next one is computed from — both
// live alongside the copy at peak, per the package accounting rule.
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
