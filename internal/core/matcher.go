// Package core implements the paper's contribution: algorithms for matching
// knowledge graphs in entity embedding spaces (its § 3). Given a pairwise
// similarity matrix S between source entities (rows) and target entities
// (columns), a Matcher decides which pairs are aligned.
//
// Following the EntMatcher library architecture (the paper's Figure 3), the
// package is split into two composable stages:
//
//   - ScoreTransform: improves the pairwise scores. None (DInf), CSLS,
//     Reciprocal (RInf and variants), Sinkhorn.
//   - Decider: turns scores into matched pairs. Greedy, Hungarian
//     (Jonker-Volgenant), GaleShapley (SMat), RL.
//
// The seven named algorithms of the paper's Table 2 are preassembled by the
// constructors NewDInf, NewCSLS, NewRInf, NewRInfWR, NewRInfPB, NewSinkhorn,
// NewHungarian, NewSMat and NewRL; custom combinations can be built with
// NewComposite, mirroring the library's loosely-coupled design.
//
// Every matcher reports wall-clock time and an analytic estimate of the
// working memory it allocated beyond the input matrix, which feeds the
// paper's efficiency comparisons (Figure 5, Tables 6-8).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"time"

	"entmatcher/internal/matrix"
)

// Pair is one matched (source row, target column) pair with the score the
// decider saw when it committed the match.
type Pair struct {
	Source int
	Target int
	Score  float64
}

// Context carries the inputs of one matching run. S is mandatory; the
// remaining fields are optional and consumed only by matchers that need
// them (RL uses adjacency, validation data and randomness).
type Context struct {
	// S is the pairwise score matrix: rows are source entities, columns are
	// target entities, larger is more similar.
	S *matrix.Dense

	// Stream optionally supplies the scores as cache-sized tiles computed on
	// the fly instead of a dense matrix (the tiled streaming similarity
	// engine; see internal/sim.Stream). When S is nil and Stream is set, the
	// run is a streaming run: only streaming-capable matchers (DInfStream,
	// CSLSStream, SinkhornBlocked) can execute it — dense matchers return
	// ErrNoMatrix. Stream's Dims must already include any dummy columns
	// counted by NumDummies.
	Stream matrix.TileSource

	// SourceAdj and TargetAdj are neighbor lists among the row entities
	// (respectively column entities) in row/column index space: SourceAdj[i]
	// lists the rows whose entities are KG-neighbors of row i's entity.
	// Used by the RL matcher's coherence constraint.
	SourceAdj [][]int
	TargetAdj [][]int

	// Valid optionally carries a held-out alignment task (usually the
	// validation split) used by learning matchers to tune themselves.
	// Valid.Valid is ignored: no recursion.
	Valid *ValidationTask

	// Rand seeds stochastic matchers. Nil means a fixed default seed.
	Rand *rand.Rand

	// NumDummies is the count of trailing columns of S that are dummy
	// (abstention) targets, appended by AddDummyColumns for the unmatchable
	// setting. Deciders that assign a row to a dummy column report the row
	// as abstained instead of emitting a pair.
	NumDummies int

	// Ctx optionally carries a cancellation context for the run. Every
	// long-running matcher loop checks it cooperatively (see DESIGN.md,
	// "Checkpoint granularity") and returns context.Canceled or
	// context.DeadlineExceeded promptly instead of running to completion.
	// Nil means the run is unbounded.
	Ctx context.Context
}

// Cancellation returns the run's cancellation context, substituting
// context.Background for a nil (unbounded) one.
func (c *Context) Cancellation() context.Context {
	if c == nil || c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// ValidationTask is a self-contained alignment task with known gold pairs,
// used for hyper-parameter tuning inside learning matchers.
type ValidationTask struct {
	S         *matrix.Dense
	SourceAdj [][]int
	TargetAdj [][]int
	Gold      []Pair
}

// Result is the outcome of one matching run.
type Result struct {
	// Matcher is the algorithm's display name (the paper's row labels).
	Matcher string
	// Pairs are the matched pairs, at most one per source row.
	Pairs []Pair
	// Abstained lists rows the matcher declined to align (dummy
	// assignments under the unmatchable setting).
	Abstained []int
	// Elapsed is the wall-clock matching time.
	Elapsed time.Duration
	// ExtraBytes is the analytic estimate of working memory allocated
	// beyond the input matrix (the paper's memory-cost axis).
	ExtraBytes int64
	// DegradedFrom lists the matchers that failed, panicked or ran out of
	// budget before the tier that produced this result, in attempt order.
	// It is empty for a direct (non-Fallback) run; Matcher always names the
	// tier that actually answered.
	DegradedFrom []string
}

// Matcher is an algorithm for matching KGs in entity embedding spaces.
type Matcher interface {
	// Name returns the paper's name for the algorithm.
	Name() string
	// Match aligns the rows of ctx.S to its columns.
	Match(ctx *Context) (*Result, error)
}

// ErrNoMatrix is returned when the context has no similarity matrix.
var ErrNoMatrix = errors.New("core: context has no similarity matrix")

// ErrEmptyMatrix is returned by the validation gate when the similarity
// matrix has zero rows or columns.
var ErrEmptyMatrix = errors.New("core: empty similarity matrix")

// ErrNonFinite is returned by the validation gate when the similarity matrix
// contains NaN or ±Inf scores, which would silently corrupt every downstream
// argmax, ranking and normalization.
var ErrNonFinite = errors.New("core: similarity matrix contains a non-finite score")

// ErrBadInput is returned by the validation gate for structurally
// inconsistent inputs: out-of-range dummy counts or adjacency lists whose
// shape does not match the similarity matrix.
var ErrBadInput = errors.New("core: invalid match input")

// ValidateContext is the input gate run at the pipeline boundary before any
// matcher sees the context: it rejects missing/empty/NaN-poisoned similarity
// matrices and shape-inconsistent side inputs with typed, wrapped errors.
// Matchers may assume a validated context and keep only their cheap local
// checks. The finiteness scan (Dense.FindNonFinite) reads every score once,
// row-parallel on the matrix package's worker pool, on every Match; it
// reports the first non-finite score in row-major order.
//
// For a streaming context (S nil, Stream set) the finiteness scan is
// skipped: materializing every score to check it would defeat streaming, and
// the stream constructor already validated the embedding tables, which
// bounds every derived score. Shape and side-input gates still apply.
func ValidateContext(c *Context) error {
	if c == nil || (c.S == nil && c.Stream == nil) {
		return ErrNoMatrix
	}
	var rows, cols int
	if c.S != nil {
		rows, cols = c.S.Rows(), c.S.Cols()
	} else {
		rows, cols = c.Stream.Dims()
	}
	if rows == 0 || cols == 0 {
		return fmt.Errorf("%w: %d×%d", ErrEmptyMatrix, rows, cols)
	}
	if c.S != nil {
		if i, j, ok := c.S.FindNonFinite(); ok {
			return fmt.Errorf("%w: S[%d,%d] = %v", ErrNonFinite, i, j, c.S.At(i, j))
		}
	}
	if c.NumDummies < 0 || c.NumDummies >= cols {
		return fmt.Errorf("%w: NumDummies %d outside [0, %d)", ErrBadInput, c.NumDummies, cols)
	}
	if c.SourceAdj != nil && len(c.SourceAdj) != rows {
		return fmt.Errorf("%w: SourceAdj has %d entries for %d rows", ErrBadInput, len(c.SourceAdj), rows)
	}
	if c.TargetAdj != nil && len(c.TargetAdj) > cols {
		return fmt.Errorf("%w: TargetAdj has %d entries for %d columns", ErrBadInput, len(c.TargetAdj), cols)
	}
	return nil
}

// PanicError wraps a panic recovered from inside a matcher, carrying the
// matcher's name and the captured stack so internal bugs surface as ordinary
// errors at the driver instead of crashing a whole serving process.
type PanicError struct {
	// Matcher is the display name of the matcher that panicked.
	Matcher string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error describes the panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: matcher %s panicked: %v", e.Matcher, e.Value)
}

// SafeMatch runs m.Match(ctx) with panic recovery: a panic inside the
// matcher is converted into a *PanicError naming the matcher. This is the
// driver entry point used by the pipeline and the Fallback chain.
func SafeMatch(m Matcher, ctx *Context) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &PanicError{Matcher: m.Name(), Value: r, Stack: debug.Stack()}
		}
	}()
	return m.Match(ctx)
}

// ScoreTransform is stage one of embedding matching: it rewrites the
// pairwise score matrix. Implementations must not mutate the input.
//
// ExtraBytes accounting rule (shared with Decider and pinned by
// TestExtraBytesAccounting): a stage reports the payload bytes of its peak
// set of simultaneously-live allocations whose size scales with the input
// shape — derived rows×cols matrices and Θ(rows)/Θ(cols) vectors. Scratch
// that is freed before the peak allocation exists (e.g. the φ-pass heaps of
// CSLS, released before the output matrix is cloned), pooled per-tile
// buffers, O(1) state and slice headers are excluded. The rule is what keeps
// the paper's memory tables (Figure 5, Tables 6–8) comparable across
// methods: every stage is measured by the same yardstick.
type ScoreTransform interface {
	Name() string
	Transform(s *matrix.Dense) (*matrix.Dense, error)
	// ExtraBytes estimates the transform's peak working memory for an
	// input of the given shape, under the package accounting rule above.
	ExtraBytes(rows, cols int) int64
}

// ContextTransform is optionally implemented by score transforms that
// support cooperative cancellation. Composite.Match prefers it over
// Transform when the run carries a context; plain Transform remains the
// uncancellable fallback so third-party transforms keep working unchanged.
// (Deciders need no such interface: Decide already receives the *Context
// and reads its cancellation directly.)
type ContextTransform interface {
	ScoreTransform
	TransformContext(ctx context.Context, s *matrix.Dense) (*matrix.Dense, error)
}

// runTransform dispatches to the transform's context-aware entry point when
// it has one.
func runTransform(cc context.Context, t ScoreTransform, s *matrix.Dense) (*matrix.Dense, error) {
	if ct, ok := t.(ContextTransform); ok {
		return ct.TransformContext(cc, s)
	}
	return t.Transform(s)
}

// Decider is stage two: it converts a score matrix into matched pairs.
// The returned abstained list contains rows assigned to dummy columns.
type Decider interface {
	Name() string
	Decide(ctx *Context, s *matrix.Dense) (pairs []Pair, abstained []int, err error)
	ExtraBytes(rows, cols int) int64
}

// Composite is a {ScoreTransform, Decider} pair — the general shape of all
// algorithms surveyed by the paper.
type Composite struct {
	Transform ScoreTransform
	Decider   Decider
	// DisplayName overrides the derived "transform+decider" name; the named
	// constructors set it to the paper's algorithm name.
	DisplayName string
}

// NewComposite assembles a custom matcher from a transform and a decider.
func NewComposite(t ScoreTransform, d Decider, name string) *Composite {
	return &Composite{Transform: t, Decider: d, DisplayName: name}
}

// Name returns the matcher's display name.
func (c *Composite) Name() string {
	if c.DisplayName != "" {
		return c.DisplayName
	}
	return fmt.Sprintf("%s+%s", c.Transform.Name(), c.Decider.Name())
}

// Match runs the two stages, timing them and accumulating the memory
// estimate.
func (c *Composite) Match(ctx *Context) (*Result, error) {
	if ctx == nil || ctx.S == nil {
		return nil, ErrNoMatrix
	}
	cc := ctx.Cancellation()
	if err := ctxErr(cc); err != nil {
		return nil, err
	}
	start := time.Now()
	s, err := runTransform(cc, c.Transform, ctx.S)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name(), err)
	}
	if err := ctxErr(cc); err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name(), err)
	}
	pairs, abstained, err := c.Decider.Decide(ctx, s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name(), err)
	}
	rows, cols := ctx.S.Rows(), ctx.S.Cols()
	return &Result{
		Matcher:    c.Name(),
		Pairs:      pairs,
		Abstained:  abstained,
		Elapsed:    time.Since(start),
		ExtraBytes: c.Transform.ExtraBytes(rows, cols) + c.Decider.ExtraBytes(rows, cols),
	}, nil
}

// AddDummyColumns returns a copy of s with n extra columns filled with
// score, and the new column count. Deciders treat trailing NumDummies
// columns as abstention targets. This implements the paper's § 5.1 recipe:
// "add the dummy nodes on the side with fewer entities" so Hungarian and
// Gale-Shapley can decline to match a source entity.
func AddDummyColumns(s *matrix.Dense, n int, score float64) *matrix.Dense {
	if n <= 0 {
		return s
	}
	out := matrix.New(s.Rows(), s.Cols()+n)
	for i := 0; i < s.Rows(); i++ {
		dst := out.Row(i)
		copy(dst, s.Row(i))
		for j := s.Cols(); j < s.Cols()+n; j++ {
			dst[j] = score
		}
	}
	return out
}

// PadDummies returns a copy of ctx with n dummy (abstention) columns at score
// appended to its scores and counted in NumDummies. It is the one
// implementation of the § 5.1 recipe: AddDummyColumns pads a dense matrix,
// matrix.PadCols a tile source (virtually: dummy tiles are constant-filled
// as they stream past). A context carrying both has both padded. n <= 0
// returns ctx unchanged.
func PadDummies(ctx *Context, n int, score float64) *Context {
	if n <= 0 {
		return ctx
	}
	out := *ctx
	if ctx.S != nil {
		out.S = AddDummyColumns(ctx.S, n, score)
	}
	if ctx.Stream != nil {
		out.Stream = matrix.PadCols(ctx.Stream, n, score)
	}
	out.NumDummies += n
	return &out
}

// matBytes is the payload size of a rows×cols float64 matrix.
func matBytes(rows, cols int) int64 { return int64(rows) * int64(cols) * 8 }

// ctxErr is the checkpoint predicate behind every cooperative cancellation
// check: ctx.Err() plus a direct clock-vs-deadline comparison. The latter
// matters on single-CPU systems, where a CPU-bound matcher loop can keep the
// runtime from firing context.WithTimeout's timer for many milliseconds —
// Err() then stays nil long past the deadline, and the explicit comparison
// is what actually stops the run.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// checkRowStride is how many per-row (or per-column) iterations a matcher
// loop runs between cooperative cancellation checks. One iteration of these
// loops is at least O(block) work, so the stride bounds cancellation latency
// without measurable overhead; see DESIGN.md, "Checkpoint granularity".
const checkRowStride = 64

// DummyScoreFromValidation derives an abstention score for dummy columns
// from a validation similarity matrix whose rows are all matchable: it
// returns the q-quantile (0 ≤ q ≤ 1) of the validation rows' maximum
// scores. With q = 0.1, roughly 90% of matchable entities score above the
// dummy, so abstention mostly hits rows that look nothing like any target.
// No test labels are involved. A q outside [0, 1] is clamped to it; a NaN q
// has no quantile, and the result is NaN.
func DummyScoreFromValidation(validS *matrix.Dense, q float64) float64 {
	if validS == nil || validS.Rows() == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return q
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	maxes, _ := validS.RowMax()
	sort.Float64s(maxes)
	idx := int(q * float64(len(maxes)-1))
	return maxes[idx]
}
