package core_test

// The sparse LAP solver as it stood before its searches were cut at the best
// free column — no free-column bound on pushes, no sorted-row early exit —
// kept verbatim (with its heap, and with the production solver's rule that a
// search ending at an infinite label abstains its row) as the reference the
// production solver must match assignment for assignment. The reference
// tallies the same work the production solver does, so a test can hold the
// cuts to scanning exactly the same columns while relaxing and pushing no
// more.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"entmatcher/internal/core"
	"entmatcher/internal/datagen"
	"entmatcher/internal/embed"
	"entmatcher/internal/eval"
	"entmatcher/internal/matrix"
	"entmatcher/internal/sim"
)

// refDistHeap is the solver's (distance, column) lazy-deletion min-heap.
type refDistHeap struct {
	d []float64
	j []int32
}

func (h *refDistHeap) len() int { return len(h.d) }
func (h *refDistHeap) reset()   { h.d, h.j = h.d[:0], h.j[:0] }
func (h *refDistHeap) less(a, b int) bool {
	return h.d[a] < h.d[b] || (h.d[a] == h.d[b] && h.j[a] < h.j[b])
}

func (h *refDistHeap) swap(a, b int) {
	h.d[a], h.d[b] = h.d[b], h.d[a]
	h.j[a], h.j[b] = h.j[b], h.j[a]
}

func (h *refDistHeap) push(d float64, j int32) {
	h.d = append(h.d, d)
	h.j = append(h.j, j)
	for c := len(h.d) - 1; c > 0; {
		p := (c - 1) / 2
		if !h.less(c, p) {
			break
		}
		h.swap(c, p)
		c = p
	}
}

func (h *refDistHeap) pop() (float64, int32) {
	d0, j0 := h.d[0], h.j[0]
	last := len(h.d) - 1
	h.swap(0, last)
	h.d, h.j = h.d[:last], h.j[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && h.less(c+1, c) {
			c++
		}
		if !h.less(c, p) {
			break
		}
		h.swap(c, p)
		p = c
	}
	return d0, j0
}

// refSolveSparseLAP is solveSparseLAP before the cuts.
func refSolveSparseLAP(ctx context.Context, g *matrix.CandGraph) ([]int, core.LAPWork, error) {
	n, m := g.Rows(), g.Cols()
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1) // p[j]: row (1-based) assigned to column j; 0 = free
	pred := make([]int32, m+1)
	dist := make([]float64, m+1)
	scanned := make([]bool, m+1)
	dead := make([]bool, m+1)
	touched := make([]int32, 0, 256) // columns with a finite label, for reset
	ready := make([]int32, 0, 256)   // scanned columns in pop order
	var h refDistHeap
	var work core.LAPWork
	for j := range dist {
		dist[j] = math.Inf(1)
	}

	for i := 1; i <= n; i++ {
		if err := ctxErr(ctx); err != nil {
			return nil, work, err
		}
		p[0] = i
		cand, scores := g.Row(i - 1)
		for x, c := range cand {
			j := int(c) + 1
			if dead[j] {
				continue
			}
			work.Relaxed++
			dist[j] = -scores[x] - u[i] - v[j]
			pred[j] = 0
			touched = append(touched, int32(j))
			h.push(dist[j], int32(j))
			work.Pushes++
		}
		jf := -1 // free column ending the shortest augmenting path
		var df float64
		pops := 0
		for h.len() > 0 {
			d, jc := h.pop()
			j1 := int(jc)
			if scanned[j1] || d != dist[j1] {
				continue // stale entry
			}
			if p[j1] == 0 {
				jf, df = j1, d
				break
			}
			scanned[j1] = true
			ready = append(ready, jc)
			work.Scanned++
			if pops++; pops&63 == 0 {
				if err := ctxErr(ctx); err != nil {
					return nil, work, err
				}
			}
			i2 := p[j1]
			cand2, scores2 := g.Row(i2 - 1)
			for x, c := range cand2 {
				j := int(c) + 1
				if scanned[j] || dead[j] {
					continue
				}
				work.Relaxed++
				nd := d + (-scores2[x] - u[i2] - v[j])
				if nd < dist[j] {
					if math.IsInf(dist[j], 1) {
						touched = append(touched, int32(j))
					}
					dist[j] = nd
					pred[j] = jc
					h.push(nd, int32(j))
					work.Pushes++
				}
			}
		}
		switch {
		case jf < 0:
			for _, jc := range touched {
				dead[jc] = true
			}
		case math.IsInf(df, 1):
			// Reachable only through a −Inf edge: abstain, nothing is dead.
		default:
			u[i] += df
			for _, jc := range ready {
				j := int(jc)
				u[p[j]] += df - dist[j]
				v[j] -= df - dist[j]
			}
			for j := jf; j != 0; {
				pj := int(pred[j])
				p[j] = p[pj]
				j = pj
			}
		}
		for _, jc := range touched {
			dist[jc] = math.Inf(1)
			scanned[jc] = false
		}
		touched = touched[:0]
		ready = ready[:0]
		h.reset()
	}
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			out[p[j]-1] = j - 1
		}
	}
	return out, work, nil
}

// lapScores fills a rows×cols score matrix of one kind:
//   - "dyadic": eighths in [−1, 1], so every sum is exact and ties are many;
//   - "random": uniform in [−1, 1), so dual updates round;
//   - "wide": uniform in [−1, 1) times 10^k, k uniform in [−10, 20) per
//     edge, so rounded dual updates lift some column duals above 0;
//   - "hubs": dyadic, but every row scores a handful of hub columns above
//     the rest, so narrow candidate lists crowd into the hubs and leave rows
//     with no free column (dead regions);
//   - "neginf": dyadic with a quarter of the edges and every fifth row at
//     −Inf.
func lapScores(rng *rand.Rand, kind string, rows, cols int) *matrix.Dense {
	s := matrix.New(rows, cols)
	hubs := rng.Perm(cols)[:max(1, cols/6)]
	for i := 0; i < rows; i++ {
		row := s.Row(i)
		for j := range row {
			switch kind {
			case "random":
				row[j] = 2*rng.Float64() - 1
			case "wide":
				row[j] = (2*rng.Float64() - 1) * math.Pow(10, float64(rng.Intn(30)-10))
			default:
				row[j] = float64(rng.Intn(17)-8) / 8
			}
		}
		switch kind {
		case "hubs":
			for _, j := range hubs {
				row[j] = 2 + float64(rng.Intn(4))/4
			}
		case "neginf":
			for j := range row {
				if i%5 == 4 || rng.Intn(4) == 0 {
					row[j] = math.Inf(-1)
				}
			}
		}
	}
	return s
}

// solveBoth builds s's candidate graphs at width c the way HungarianSparse
// does — the forward graph for wide and square inputs, the reverse graph for
// tall ones — and runs both solvers on the one it picks.
func solveBoth(t *testing.T, s *matrix.Dense, c int) (got, want []int, gw, ww core.LAPWork) {
	t.Helper()
	ctx := context.Background()
	fwd, rev, err := matrix.BuildCandGraphs(ctx, &matrix.DenseTileSource{M: s}, c, c)
	if err != nil {
		t.Fatal(err)
	}
	g := fwd
	if s.Rows() > s.Cols() {
		g = rev
	}
	if got, gw, err = core.SolveSparseLAP(ctx, g); err != nil {
		t.Fatal(err)
	}
	if want, ww, err = refSolveSparseLAP(ctx, g); err != nil {
		t.Fatal(err)
	}
	return got, want, gw, ww
}

// TestSparseLAPMatchesReference holds the cut solver to the reference on
// every input kind, wide, square and tall, at every candidate width from 1
// to full: the same assignment, the same scanned columns, and no more
// relaxations or pushes. The "wide" inputs fail an early exit that bounds
// labels with 0 instead of the largest column dual; the "hubs" inputs must
// leave some rows abstaining, so failed searches and dead regions run. No
// edge at −Inf is ever matched, so in the "neginf" inputs every row whose
// edges are all −Inf abstains.
func TestSparseLAPMatchesReference(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {6, 6}, {9, 17}, {17, 9}, {24, 24}, {31, 48}, {48, 31}}
	for _, kind := range []string{"dyadic", "random", "wide", "hubs", "neginf"} {
		abstained := 0
		for si, sh := range shapes {
			rng := rand.New(rand.NewSource(int64(1000*si + len(kind))))
			for rep := 0; rep < 3; rep++ {
				s := lapScores(rng, kind, sh[0], sh[1])
				for c := 1; c <= max(sh[0], sh[1]); c++ {
					name := fmt.Sprintf("%s/%dx%d/rep%d/c%d", kind, sh[0], sh[1], rep, c)
					got, want, gw, ww := solveBoth(t, s, c)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: assignment %v, reference %v", name, got, want)
					}
					if gw.Scanned != ww.Scanned || gw.Relaxed > ww.Relaxed || gw.Pushes > ww.Pushes {
						t.Fatalf("%s: work %+v, reference %+v", name, gw, ww)
					}
					for r, j := range got {
						if j < 0 {
							abstained++
							continue
						}
						i, k := r, j // the edge in s
						if sh[0] > sh[1] {
							i, k = j, r
						}
						if math.IsInf(s.At(i, k), -1) {
							t.Fatalf("%s: row %d matched to column %d through a −Inf edge", name, i, k)
						}
					}
				}
			}
		}
		if kind == "hubs" && abstained == 0 {
			t.Error("hubs: no row abstained, so no search failed")
		}
	}
}

// TestSparseLAPWorkOnDigestRung runs both solvers on the exact-c16 digest
// rung's forward graph (the seed-1 D-W task of the answer digests, ×0.012,
// name embeddings, cosine) and holds the cut solver to the reference's
// assignment, its scanned-column count exactly, and at most its relaxations
// and pushes. -v logs both tallies.
func TestSparseLAPWorkOnDigestRung(t *testing.T) {
	p := datagen.DWY100KDbpWd.Scaled(0.012)
	p.Seed = p.Seed*1_000_003 + 1
	d, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := embed.EncodeNames(d, embed.DefaultNameConfig())
	if err != nil {
		t.Fatal(err)
	}
	task, err := eval.OneToOneTask(d)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := sim.NewStream(emb.Source.SelectRows(task.SourceIDs), emb.Target.SelectRows(task.TargetIDs), sim.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fwd, err := matrix.BuildCandGraph(ctx, stream, 16)
	if err != nil {
		t.Fatal(err)
	}
	got, gw, err := core.SolveSparseLAP(ctx, fwd)
	if err != nil {
		t.Fatal(err)
	}
	want, ww, err := refSolveSparseLAP(ctx, fwd)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d×%d, C = 16: relaxed %d → %d, pushes %d → %d, scanned %d → %d",
		fwd.Rows(), fwd.Cols(), ww.Relaxed, gw.Relaxed, ww.Pushes, gw.Pushes, ww.Scanned, gw.Scanned)
	if !slices.Equal(got, want) {
		t.Fatal("assignment differs from the reference")
	}
	if gw.Scanned != ww.Scanned || gw.Relaxed > ww.Relaxed || gw.Pushes > ww.Pushes {
		t.Fatalf("work %+v, reference %+v", gw, ww)
	}
}

// TestHungarianWorkOnDigestTask runs the dense decider on the seed-1 D-Z task
// of the answer digests (×0.012, RREA structure features, cosine) and pins
// its work exactly: row scans, relaxed prefix edges, heap pushes and
// whole-row passes. Its scanned columns are the dense two-pass solver's (one
// row scan each, besides each search's first row on both sides); its
// relaxed edges stay far below rows × cols, and the scores it reads (edges
// plus whole rows) below a tenth of the solver's full row per search and per
// scan. -v logs both.
func TestHungarianWorkOnDigestTask(t *testing.T) {
	p := datagen.DBP15KZhEn.Scaled(0.012)
	p.Seed = p.Seed*1_000_003 + 1
	d, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := embed.Encode(d, embed.DefaultConfig(embed.ModelRREA))
	if err != nil {
		t.Fatal(err)
	}
	task, err := eval.OneToOneTask(d)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.Matrix(emb.Source.SelectRows(task.SourceIDs), emb.Target.SelectRows(task.TargetIDs), sim.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows() > s.Cols() {
		t.Fatalf("%d×%d: the task is tall; the scan comparison below needs rows ≤ cols", s.Rows(), s.Cols())
	}
	got, err := core.HungarianWork(s, core.LAPStartWidth)
	if err != nil {
		t.Fatal(err)
	}
	_, scans, err := refSolveLAP(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d×%d, C₀ = %d: %+v; the dense solver scanned %d columns, %d labels each",
		s.Rows(), s.Cols(), core.LAPStartWidth, got, scans, s.Cols())
	if got.Scanned != scans {
		t.Fatalf("%d scanned columns, the dense solver scanned %d", got.Scanned, scans)
	}
	if want := (core.LAPWork{Relaxed: 2425, Pushes: 2895, Scanned: 741, WholeRows: 42}); got != want {
		t.Fatalf("work %+v, pinned %+v", got, want)
	}
	if got.Relaxed*4 > s.Rows()*s.Cols() {
		t.Fatalf("%d relaxed edges: not far below %d×%d", got.Relaxed, s.Rows(), s.Cols())
	}
	// Scores read: the prefixes' edges and the whole rows, against the
	// dense solver's full row per search and per scan.
	if read, dense := got.Relaxed+got.WholeRows*s.Cols(), (scans+s.Rows())*s.Cols(); read*10 > dense {
		t.Fatalf("%d scores read, the dense solver %d", read, dense)
	}
}
