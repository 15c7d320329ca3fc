package core_test

// The three dense bodies as they stood before they were rebuilt on the packed
// ranking primitive and the fused Sinkhorn sweep — SMat's preference builds
// over sort.Slice, RInf's Clone → SubRowVector → Apply passes and per-row
// sort.Slice rank transform, Sinkhorn's three sweeps per iteration with a
// serial column sum — kept verbatim (the matrix methods they called are
// inlined as ref* helpers) as the references the production bodies must stay
// bit-identical to: same pairs, same scores, same abstentions, same transform
// matrices. SinkhornSparse's body before its column scale was deferred (three
// serial CSR sweeps per iteration) is kept the same way.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"entmatcher/internal/conformance"
	"entmatcher/internal/core"
	"entmatcher/internal/matrix"
)

const checkRowStride = 64

func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// refGaleShapley is GaleShapleyDecider.Decide before the rewrite.
type refGaleShapley struct{ core.GaleShapleyDecider }

func (refGaleShapley) Decide(ctx *core.Context, s *matrix.Dense) ([]core.Pair, []int, error) {
	rows, cols := s.Rows(), s.Cols()
	if rows == 0 || cols == 0 {
		return nil, nil, fmt.Errorf("gale-shapley: empty matrix %d×%d", rows, cols)
	}
	cc := ctx.Cancellation()

	// Row preference lists: columns in descending score order.
	rowPref := make([][]int32, rows)
	for i := 0; i < rows; i++ {
		if i%checkRowStride == 0 {
			if err := ctxErr(cc); err != nil {
				return nil, nil, err
			}
		}
		row := s.Row(i)
		order := make([]int32, cols)
		for j := range order {
			order[j] = int32(j)
		}
		sort.Slice(order, func(a, b int) bool {
			va, vb := row[order[a]], row[order[b]]
			if va != vb {
				return va > vb
			}
			return order[a] < order[b]
		})
		rowPref[i] = order
	}

	// Column rank tables: colRank[j][i] = position of row i in column j's
	// preference (lower is better).
	colRank := make([][]int32, cols)
	{
		order := make([]int, rows)
		for j := 0; j < cols; j++ {
			if j%checkRowStride == 0 {
				if err := ctxErr(cc); err != nil {
					return nil, nil, err
				}
			}
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool {
				va, vb := s.At(order[a], j), s.At(order[b], j)
				if va != vb {
					return va > vb
				}
				return order[a] < order[b]
			})
			ranks := make([]int32, rows)
			for r, i := range order {
				ranks[i] = int32(r)
			}
			colRank[j] = ranks
		}
	}

	// Deferred acceptance.
	next := make([]int, rows)    // next proposal index per row
	engaged := make([]int, cols) // column -> row, -1 when free
	for j := range engaged {
		engaged[j] = -1
	}
	free := make([]int, rows)
	for i := range free {
		free[i] = i
	}
	proposals := 0
	for len(free) > 0 {
		i := free[len(free)-1]
		free = free[:len(free)-1]
		for next[i] < cols {
			proposals++
			if proposals%checkRowStride == 0 {
				if err := ctxErr(cc); err != nil {
					return nil, nil, err
				}
			}
			j := int(rowPref[i][next[i]])
			next[i]++
			cur := engaged[j]
			if cur == -1 {
				engaged[j] = i
				i = -1
				break
			}
			if colRank[j][i] < colRank[j][cur] {
				engaged[j] = i
				i = cur // the displaced row proposes again
			}
		}
	}

	realCols := cols - ctx.NumDummies
	assigned := make([]int, rows)
	for i := range assigned {
		assigned[i] = -1
	}
	for j, i := range engaged {
		if i >= 0 {
			assigned[i] = j
		}
	}
	pairs := make([]core.Pair, 0, rows)
	var abstained []int
	for i, j := range assigned {
		if j < 0 || j >= realCols {
			abstained = append(abstained, i)
			continue
		}
		pairs = append(pairs, core.Pair{Source: i, Target: j, Score: s.At(i, j)})
	}
	return pairs, abstained, nil
}

// refRowRanksInPlace is Dense.RowRanksInPlace before the rewrite.
func refRowRanksInPlace(m *matrix.Dense) {
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		order := make([]int, len(row))
		for j := range order {
			order[j] = j
		}
		sort.Slice(order, func(a, b int) bool {
			if row[order[a]] != row[order[b]] {
				return row[order[a]] > row[order[b]]
			}
			return order[a] < order[b]
		})
		for r, j := range order {
			row[j] = float64(r + 1)
		}
	}
}

// refReciprocal is ReciprocalTransform{WithRanking: true} before the rewrite.
// (Not embedded: a promoted TransformContext would run the production body.)
type refReciprocal struct{}

func (refReciprocal) Name() string { return "reciprocal-reference" }

func (refReciprocal) ExtraBytes(rows, cols int) int64 {
	return core.ReciprocalTransform{WithRanking: true}.ExtraBytes(rows, cols)
}

func (refReciprocal) Transform(s *matrix.Dense) (*matrix.Dense, error) {
	rows, cols := s.Rows(), s.Cols()
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("reciprocal: empty matrix %d×%d", rows, cols)
	}
	rowMaxes, _ := s.RowMax() // max over targets for each source
	colMaxes, _ := s.ColMax() // max over sources for each target

	// P_st(u, v) = S(u, v) − colMax(v) + 1.
	pst := s.Clone()
	if err := pst.SubRowVector(colMaxes); err != nil {
		return nil, err
	}
	pst.Apply(func(v float64) float64 { return v + 1 })

	// P_ts(v, u) = S(u, v) − rowMax(u) + 1, stored transposed (cols×rows).
	pts := s.Transpose()
	if err := pts.SubRowVector(rowMaxes); err != nil {
		return nil, err
	}
	pts.Apply(func(v float64) float64 { return v + 1 })

	refRowRanksInPlace(pst)
	refRowRanksInPlace(pts)
	// Reciprocal rank matrix: −(R_st + R_tsᵀ)/2.
	ptsT := pts.Transpose()
	for i := 0; i < rows; i++ {
		dst := pst.Row(i)
		add := ptsT.Row(i)
		for j := range dst {
			dst[j] = -(dst[j] + add[j]) / 2
		}
	}
	return pst, nil
}

// refNormalizeRowsInPlace, refColSums and refNormalizeColsInPlace are the
// Dense methods of the same names before the rewrite.
func refNormalizeRowsInPlace(m *matrix.Dense, eps float64) {
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		var s float64
		for _, v := range row {
			s += v
		}
		if math.Abs(s) < eps {
			continue
		}
		inv := 1 / s
		for j := range row {
			row[j] *= inv
		}
	}
}

func refColSums(m *matrix.Dense) []float64 {
	out := make([]float64, m.Cols())
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

func refNormalizeColsInPlace(m *matrix.Dense, eps float64) {
	sums := refColSums(m)
	inv := make([]float64, m.Cols())
	for j, s := range sums {
		if math.Abs(s) < eps {
			inv[j] = 1
		} else {
			inv[j] = 1 / s
		}
	}
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= inv[j]
		}
	}
}

// refSinkhorn is SinkhornTransform before the rewrite.
type refSinkhorn struct {
	L   int
	Tau float64
}

func (refSinkhorn) Name() string { return "sinkhorn-reference" }

func (t refSinkhorn) ExtraBytes(rows, cols int) int64 {
	return core.SinkhornTransform{L: t.L, Tau: t.Tau}.ExtraBytes(rows, cols)
}

func (t refSinkhorn) Transform(s *matrix.Dense) (*matrix.Dense, error) {
	if t.L < 0 {
		return nil, fmt.Errorf("sinkhorn: negative iteration count %d", t.L)
	}
	if t.Tau <= 0 {
		return nil, fmt.Errorf("sinkhorn: temperature must be positive, got %v", t.Tau)
	}
	out := s.Clone()
	gi, gj := s.Argmax()
	var gmax float64
	if gi >= 0 {
		gmax = s.At(gi, gj)
	}
	inv := 1 / t.Tau
	out.Apply(func(v float64) float64 { return math.Exp((v - gmax) * inv) })
	const eps = 1e-300
	for l := 0; l < t.L; l++ {
		refNormalizeRowsInPlace(out, eps)
		refNormalizeColsInPlace(out, eps)
	}
	return out, nil
}

// refSinkhornSparse is SinkhornSparse.Match before the rewrite (the tile
// source is resolved inline; sparseSource is not exported).
type refSinkhornSparse struct{ core.SinkhornSparse }

func (m refSinkhornSparse) Match(ctx *core.Context) (*core.Result, error) {
	if ctx == nil {
		return nil, core.ErrNoMatrix
	}
	if m.C < 1 {
		return nil, fmt.Errorf("sinkhorn-sparse: candidate budget must be positive, got %d", m.C)
	}
	if m.L < 0 {
		return nil, fmt.Errorf("sinkhorn: negative iteration count %d", m.L)
	}
	if m.Tau <= 0 {
		return nil, fmt.Errorf("sinkhorn: temperature must be positive, got %v", m.Tau)
	}
	start := time.Now()
	cc := ctx.Cancellation()
	src := ctx.Stream
	if src == nil {
		src = &matrix.DenseTileSource{M: ctx.S}
	}
	rows, cols := src.Dims()
	fwd, err := matrix.BuildCandGraph(cc, src, m.C)
	if err != nil {
		return nil, err
	}
	// The normalization kernels must visit each row's entries in ascending
	// column order to sum exactly as the dense NormalizeRows/ColsInPlace do.
	w := fwd.ColSortedClone()

	// Numerical stabilization, as in the dense transform: subtract the
	// global maximum before exponentiating. Every row head is that row's
	// exact maximum for any C >= 1, so the graph's head maximum is the
	// dense Argmax value.
	var gmax float64
	heads := fwd.RowHeadScores()
	gbest := math.Inf(-1)
	for _, v := range heads {
		if v > gbest {
			gbest = v
		}
	}
	if !math.IsInf(gbest, -1) {
		gmax = gbest
	}
	inv := 1 / m.Tau
	for i := 0; i < rows; i++ {
		if i%checkRowStride == 0 {
			if err := ctxErr(cc); err != nil {
				return nil, err
			}
		}
		_, scores := w.Row(i)
		for x, v := range scores {
			scores[x] = math.Exp((v - gmax) * inv)
		}
	}

	const eps = 1e-300
	colSum := make([]float64, cols)
	colInv := make([]float64, cols)
	for l := 0; l < m.L; l++ {
		if err := ctxErr(cc); err != nil {
			return nil, err
		}
		// Row normalization: per-row sum in ascending column order.
		for i := 0; i < rows; i++ {
			_, scores := w.Row(i)
			var s float64
			for _, v := range scores {
				s += v
			}
			if math.Abs(s) < eps {
				continue
			}
			rinv := 1 / s
			for x := range scores {
				scores[x] *= rinv
			}
		}
		// Column normalization: sums accumulate row-major exactly like
		// Dense.ColSums, then every edge is scaled.
		for j := range colSum {
			colSum[j] = 0
		}
		for i := 0; i < rows; i++ {
			cand, scores := w.Row(i)
			for x, j := range cand {
				colSum[j] += scores[x]
			}
		}
		for j, s := range colSum {
			if math.Abs(s) < eps {
				colInv[j] = 1
			} else {
				colInv[j] = 1 / s
			}
		}
		for i := 0; i < rows; i++ {
			cand, scores := w.Row(i)
			for x, j := range cand {
				scores[x] *= colInv[j]
			}
		}
	}

	// Greedy: first strict maximum in ascending column order, as
	// Dense.RowMax.
	realCols := cols - ctx.NumDummies
	pairs := make([]core.Pair, 0, rows)
	var abstained []int
	for i := 0; i < rows; i++ {
		if i%checkRowStride == 0 {
			if err := ctxErr(cc); err != nil {
				return nil, err
			}
		}
		cand, scores := w.Row(i)
		best := math.Inf(-1)
		bestJ := -1
		for x, v := range scores {
			if v > best {
				best = v
				bestJ = int(cand[x])
			}
		}
		if bestJ < 0 || bestJ >= realCols {
			abstained = append(abstained, i)
			continue
		}
		pairs = append(pairs, core.Pair{Source: i, Target: bestJ, Score: best})
	}
	return &core.Result{
		Matcher:    m.Name(),
		Pairs:      pairs,
		Abstained:  abstained,
		Elapsed:    time.Since(start),
		ExtraBytes: 2*fwd.SizeBytes() + int64(fwd.NNZ())*8 + int64(cols)*16 + int64(matrix.DefaultTileRows*matrix.DefaultTileCols)*8,
	}, nil
}

// referenceCases is the adversarial suite plus shapes large enough to reach
// what the toy matrices cannot: the radix path of the ranking primitive
// (rows longer than 64), the four-row blocks of the Sinkhorn sweeps with a
// ragged tail, column-gather tiles with a short last tile, and more than one
// chunk per worker — tall, wide and with dummy columns.
func referenceCases() []conformance.Case {
	rng := rand.New(rand.NewSource(19))
	// Cosine-like scores of both signs, signed zeros included.
	signed := func(rows, cols int) *matrix.Dense {
		s := conformance.WellSeparated(rng, rows, cols)
		s.Apply(func(v float64) float64 { return 2*v - 1 })
		s.Set(0, 0, 0)
		s.Set(rows-1, cols-1, math.Copysign(0, -1))
		return s
	}
	return append(conformance.AdversarialCases(1),
		conformance.Case{Name: "signed-square-131x131", S: signed(131, 131)},
		conformance.Case{Name: "signed-tall-150x97", S: signed(150, 97)},
		conformance.Case{Name: "signed-wide-97x150", S: signed(97, 150)},
		conformance.Case{Name: "tie-dense-120x120", S: conformance.TieHeavy(rng, 120, 120, 8)},
		conformance.Case{Name: "duplicate-rows-70x133", S: conformance.DuplicateRows(rng, 70, 133)},
		conformance.Case{Name: "near-equal-1ulp-90x90", S: conformance.NearEqual(rng, 90, 90)},
		conformance.WithDummyCols("dummies-110x90+5", signed(110, 90), 5, 0.25),
		conformance.WithDummyCols("tie-dummies-80x100+3", conformance.TieHeavy(rng, 80, 100, 4), 3, 0.5),
	)
}

func TestDenseBodiesMatchReferenceBodies(t *testing.T) {
	sink := core.SinkhornTransform{L: 30, Tau: core.DefaultSinkhornTau}
	bodies := []struct {
		name      string
		got, want core.Matcher
		// transforms are compared bit for bit where the body is a transform.
		gotT, wantT core.ScoreTransform
	}{
		{
			name: "SMat",
			got:  core.NewSMat(),
			want: core.NewComposite(core.NoneTransform{}, refGaleShapley{}, "SMat"),
		},
		{
			name: "RInf",
			got:  core.NewRInf(),
			want: core.NewComposite(refReciprocal{}, core.GreedyDecider{}, "RInf"),
			gotT: core.ReciprocalTransform{WithRanking: true}, wantT: refReciprocal{},
		},
		{
			name: "Sink.",
			got:  core.NewComposite(sink, core.GreedyDecider{}, "Sink."),
			want: core.NewComposite(refSinkhorn{sink.L, sink.Tau}, core.GreedyDecider{}, "Sink."),
			gotT: sink, wantT: refSinkhorn{sink.L, sink.Tau},
		},
	}
	for _, c := range referenceCases() {
		for _, b := range bodies {
			t.Run(b.name+"/"+c.Name, func(t *testing.T) {
				ctx := func() *core.Context { return &core.Context{S: c.S.Clone(), NumDummies: c.NumDummies} }
				got, err := b.got.Match(ctx())
				if err != nil {
					t.Fatal(err)
				}
				want, err := b.want.Match(ctx())
				if err != nil {
					t.Fatal(err)
				}
				if !conformance.ResultsIdentical(got, want) {
					t.Fatalf("result diverged from the reference body: %s", conformance.DescribeDiff(got, want))
				}
				if b.gotT == nil {
					return
				}
				gotM, err := b.gotT.Transform(c.S.Clone())
				if err != nil {
					t.Fatal(err)
				}
				wantM, err := b.wantT.Transform(c.S.Clone())
				if err != nil {
					t.Fatal(err)
				}
				if !gotM.EqualBits(wantM) {
					t.Fatal("transform matrix is not bit-identical to the reference body's")
				}
			})
		}
	}
}

// TestSinkhornDeferredScaleMatchesReference walks L through the values where
// the deferred column scale changes shape — none pending (0), only the
// trailing one (1), a carried one (2, 3, 10) — on a matrix with a dead row and
// a dead column: scores so far below the maximum that their exponentials
// underflow to zero, so both eps guards run in every iteration.
func TestSinkhornDeferredScaleMatchesReference(t *testing.T) {
	s := conformance.WellSeparated(rand.New(rand.NewSource(29)), 70, 67)
	for j := 0; j < s.Cols(); j++ {
		s.Set(5, j, -100)
	}
	for i := 0; i < s.Rows(); i++ {
		s.Set(i, 7, -100)
	}
	for _, l := range []int{0, 1, 2, 3, 10} {
		tr := core.SinkhornTransform{L: l, Tau: core.DefaultSinkhornTau}
		got, err := tr.Transform(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refSinkhorn{tr.L, tr.Tau}.Transform(s)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualBits(want) {
			t.Fatalf("L=%d: transform not bit-identical to the reference body", l)
		}
		if l > 0 && (got.At(5, 0) != 0 || got.At(0, 7) != 0) {
			t.Fatalf("L=%d: the dead row and column did not stay zero; the eps guards were not exercised", l)
		}
	}
}

// TestSinkhornDeferredScaleMatchesReferenceSparse holds SinkhornSparse to its
// pre-rewrite body — pairs, score bits, abstentions, ExtraBytes — on the
// reference cases at truncating and full budgets, with L walking through the
// shapes of the deferred scale (none pending, only the trailing one, a
// carried one, many) and a matrix whose dead row and dead column keep both
// eps guards busy in every iteration.
func TestSinkhornDeferredScaleMatchesReferenceSparse(t *testing.T) {
	dead := conformance.WellSeparated(rand.New(rand.NewSource(31)), 70, 67)
	for j := 0; j < dead.Cols(); j++ {
		dead.Set(5, j, -100)
	}
	for i := 0; i < dead.Rows(); i++ {
		dead.Set(i, 7, -100)
	}
	cases := append(referenceCases(), conformance.Case{Name: "dead-row-and-column-70x67", S: dead})
	for _, c := range cases {
		for _, budget := range []int{3, c.S.Rows() + c.S.Cols()} {
			for _, l := range []int{0, 1, 2, 100} {
				m := core.SinkhornSparse{C: budget, L: l, Tau: core.DefaultSinkhornTau}
				ctx := func() *core.Context { return &core.Context{S: c.S.Clone(), NumDummies: c.NumDummies} }
				got, err := m.Match(ctx())
				if err != nil {
					t.Fatal(err)
				}
				want, err := refSinkhornSparse{m}.Match(ctx())
				if err != nil {
					t.Fatal(err)
				}
				if !conformance.ResultsIdentical(got, want) {
					t.Fatalf("%s C=%d L=%d: result diverged from the reference body: %s", c.Name, budget, l, conformance.DescribeDiff(got, want))
				}
				if got.ExtraBytes != want.ExtraBytes {
					t.Fatalf("%s C=%d L=%d: ExtraBytes %d, reference %d", c.Name, budget, l, got.ExtraBytes, want.ExtraBytes)
				}
			}
		}
	}
}

// flipCtx reports context.Canceled from its (after+1)-th Err call on: a
// deterministic way to cancel a body at a chosen checkpoint, whatever the
// worker count.
type flipCtx struct {
	context.Context
	after, calls int32
}

func (c *flipCtx) Err() error {
	if atomic.AddInt32(&c.calls, 1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestDenseBodiesCancelAtEveryCheckpoint: a context cancelled at any poll of
// SMat's decider — the row preference build, the column-tile build, the
// proposal loop — or of a Sinkhorn transform — the exponentiation kernel,
// then one poll per iteration between the sweeps — ends the body with
// ctx.Err() and no output. Each body first runs to completion to count its
// polls, then is cancelled at every one of them in turn.
func TestDenseBodiesCancelAtEveryCheckpoint(t *testing.T) {
	const n = 200
	s := conformance.WellSeparated(rand.New(rand.NewSource(23)), n, n)
	polls := func(run func(cc context.Context) error) int32 {
		probe := &flipCtx{Context: context.Background(), after: math.MaxInt32}
		if err := run(probe); err != nil {
			t.Fatal(err)
		}
		return probe.calls
	}
	cancelEverywhere := func(name string, total int32, run func(cc context.Context) error) {
		for after := int32(0); after < total; after++ {
			cc := &flipCtx{Context: context.Background(), after: after}
			if err := run(cc); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s cancelled at poll %d of %d: err=%v, want context.Canceled", name, after+1, total, err)
			}
		}
	}

	smat := func(cc context.Context) error {
		pairs, abstained, err := core.GaleShapleyDecider{}.Decide(&core.Context{S: s, Ctx: cc}, s)
		if err != nil && (pairs != nil || abstained != nil) {
			t.Fatalf("SMat returned output beside %v", err)
		}
		return err
	}
	total := polls(smat)
	// Both preference builds poll at least once per checkRowStride rows
	// (columns), plus the driver's closing poll each.
	if minPolls := int32(2 * (n/checkRowStride + 1)); total < minPolls {
		t.Fatalf("SMat polled its context %d times on %d×%d, want at least %d", total, n, n, minPolls)
	}
	cancelEverywhere("SMat", total, smat)

	sinkhorn := func(l int) func(cc context.Context) error {
		return func(cc context.Context) error {
			out, err := core.SinkhornTransform{L: l, Tau: core.DefaultSinkhornTau}.TransformContext(cc, s)
			if err != nil && out != nil {
				t.Fatalf("Sinkhorn returned a matrix beside %v", err)
			}
			return err
		}
	}
	const iters = 8
	kernel, total := polls(sinkhorn(0)), polls(sinkhorn(iters))
	if total != kernel+iters {
		t.Fatalf("Sinkhorn polled %d times over %d iterations beyond the kernel's %d, want one per iteration", total-kernel, iters, kernel)
	}
	cancelEverywhere("Sinkhorn", total, sinkhorn(iters))
}
