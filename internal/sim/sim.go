// Package sim computes pairwise similarity matrices between source and
// target entity embeddings — the first half of the embedding-matching stage
// (Algorithm 3, line 1 of the paper).
//
// One kernel turns two embedding tables into scores: Stream's tile kernel
// (stream.go). The dense matrix (MatrixContext) is that kernel written in
// place over full-width row strips, a Block is that kernel over gathered or
// in-place row windows, and a tile pass is that kernel over one tile at a
// time — so dense, streamed and Block scores agree bit for bit by
// construction.
//
// Three metrics are provided, matching the choices surveyed in § 4.2:
// cosine similarity (the paper's main setting), negative Euclidean distance
// and negative Manhattan distance. All three are oriented so that larger
// scores mean more similar, the convention the matching algorithms assume.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"entmatcher/internal/matrix"
)

// ctxErr is the cooperative-cancellation predicate: ctx.Err() plus a direct
// clock-vs-deadline comparison, so an expired deadline is honored even when
// a busy single-CPU runtime has not yet fired the context timer.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// ErrNonFinite is returned when an embedding table contains NaN or ±Inf
// components. A single poisoned embedding would otherwise propagate into an
// entire row/column of the similarity matrix and silently corrupt every
// downstream matcher, so the gate rejects it here with the exact location.
var ErrNonFinite = errors.New("sim: embeddings contain a non-finite value")

// ErrEmptyEmbeddings is returned when either embedding table has no rows —
// there is nothing to match, and downstream algorithms would fail in less
// obvious ways.
var ErrEmptyEmbeddings = errors.New("sim: empty embedding table")

// Metric identifies a pairwise similarity metric.
type Metric int

const (
	// Cosine is the cosine similarity (the mainstream EA choice).
	Cosine Metric = iota
	// Euclidean is the negated Euclidean distance.
	Euclidean
	// Manhattan is the negated Manhattan (L1) distance.
	Manhattan
)

// String returns the metric name.
func (m Metric) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case Euclidean:
		return "euclidean"
	case Manhattan:
		return "manhattan"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Matrix computes the |src|×|tgt| pairwise score matrix S between the rows
// of src and tgt under the metric. Both inputs must share the embedding
// dimension, be non-empty, and contain only finite values; violations are
// rejected with typed, wrapped errors before any score is computed.
func Matrix(src, tgt *matrix.Dense, metric Metric) (*matrix.Dense, error) {
	return MatrixContext(context.Background(), src, tgt, metric)
}

// MatrixContext is Matrix with cooperative cancellation. It is NewStream —
// the one validation gate and the one cosine normalization — followed by the
// stream's tile kernel written in place over the result (Stream.dense), so
// every dense score is the bits a streamed tile or a Block holds for the
// pair. ctx is checked once per tile row block; a done context returns
// ctx.Err() and no matrix.
func MatrixContext(ctx context.Context, src, tgt *matrix.Dense, metric Metric) (*matrix.Dense, error) {
	st, err := NewStream(src, tgt, metric)
	if err != nil {
		return nil, err
	}
	return st.dense(ctx)
}

// normalizedRows returns a row-L2-normalized copy of m; zero rows stay zero.
func normalizedRows(m *matrix.Dense) *matrix.Dense {
	out := m.Clone()
	for i := 0; i < out.Rows(); i++ {
		row := out.Row(i)
		var s float64
		for _, v := range row {
			s += v * v
		}
		if s == 0 {
			continue
		}
		inv := 1 / math.Sqrt(s)
		for j := range row {
			row[j] *= inv
		}
	}
	return out
}

// TopScoreSTD returns the average, over all rows of S, of the standard
// deviation of each row's top-k scores. This is the statistic of the
// paper's Figure 4: low values mean the top candidates are hard to
// distinguish (where CSLS/RInf help most — Pattern 1), high values mean
// the scores are already discriminative (where SMat/RL catch up).
func TopScoreSTD(s *matrix.Dense, k int) float64 {
	if s.Rows() == 0 || s.Cols() == 0 || k < 2 {
		return 0
	}
	tks := s.RowTopK(k)
	var total float64
	var counted int
	for _, tk := range tks {
		n := len(tk.Values)
		if n < 2 {
			continue
		}
		var mean float64
		for _, v := range tk.Values {
			mean += v
		}
		mean /= float64(n)
		var ss float64
		for _, v := range tk.Values {
			diff := v - mean
			ss += diff * diff
		}
		total += math.Sqrt(ss / float64(n))
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}
