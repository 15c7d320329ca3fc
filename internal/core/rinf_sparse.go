package core

import (
	"fmt"
	"math"
	"time"

	"entmatcher/internal/matrix"
)

// RInfSparse is the reciprocal-preference matcher (RInf) over a candidate
// graph. It computes exactly what RInfPB computes — per-entity preference
// ranking within the top-C block in both directions, averaged with a
// worst-rank penalty for absences — but from the top-C candidate graphs and
// with array-based rank joins instead of per-entity hash maps, so it scales
// to 100k×100k where RInfPB's dense top-k input cannot exist.
//
// Both direction's statistics come from one BuildCandGraphs call — a single
// streaming pass on a cold source, no pass at all when the run's memo
// (matrix.GraphMemo) already holds both graphs: the forward graph's row heads are the exact row maxima and the reverse
// graph's row heads the exact column maxima (a top-C head is the true
// maximum for any C >= 1), which is all the preference construction
// p(u,v) = S(u,v) − max S + 1 needs. At C >= max(rows, cols) the result is
// bit-identical to RInfPB at the same C, and hence (by RInfPB's pinned
// full-width property) to dense RInf.
type RInfSparse struct {
	// C is the per-entity candidate budget (the progressive-blocking block
	// size). The absence penalty is C+1, unclamped, matching RInfPB.
	C int
}

// Name returns "RInf-sparse".
func (*RInfSparse) Name() string { return "RInf-sparse" }

// Match runs sparse reciprocal matching.
func (m *RInfSparse) Match(ctx *Context) (*Result, error) {
	if ctx == nil {
		return nil, ErrNoMatrix
	}
	if m.C < 1 {
		return nil, fmt.Errorf("rinf-sparse: candidate budget must be positive, got %d", m.C)
	}
	start := time.Now()
	cc := ctx.Cancellation()
	src, rows, cols, err := sparseSource(ctx)
	if err != nil {
		return nil, err
	}
	fwd, rev, err := matrix.BuildCandGraphs(cc, src, m.C, m.C)
	if err != nil {
		return nil, err
	}
	rowMaxes := fwd.RowHeadScores() // max over targets for each source
	colMaxes := rev.RowHeadScores() // max over sources for each target

	// Forward ranks, aligned with the fwd CSR positions: rankST[p] is the
	// 1-based rank of edge p's column within its row's preference order
	// p_st = v − colMax + 1 (descending, ties by ascending column id).
	rankST := make([]int32, fwd.NNZ())
	prefBuf := make([]float64, 0, 64)
	orderBuf := make([]int32, 0, 64)
	var base int32
	for i := 0; i < rows; i++ {
		if i%checkRowStride == 0 {
			if err := ctxErr(cc); err != nil {
				return nil, err
			}
		}
		cand, scores := fwd.Row(i)
		prefBuf = prefBuf[:0]
		for x, j := range cand {
			prefBuf = append(prefBuf, scores[x]-colMaxes[j]+1)
		}
		orderBuf = sortPrefDesc(prefBuf, cand, orderBuf)
		for r, x := range orderBuf {
			rankST[base+x] = int32(r + 1)
		}
		base += int32(len(cand))
	}

	// Reverse ranks delivered onto the forward edges: rankTS[p] is the
	// 1-based rank of edge p's row within its column's preference order
	// p_ts = v − rowMax + 1, or 0 when the row is outside the column's
	// reverse block. The join walks the forward graph's transpose view
	// column by column against the reverse graph, scattering ranks through
	// a rows-length scratch that is wiped per column — O(nnz) total, no
	// hashing.
	rankTS := make([]int32, fwd.NNZ())
	csc := fwd.CSCView()
	scatter := make([]int32, rows)
	for j := 0; j < cols; j++ {
		if j%checkRowStride == 0 {
			if err := ctxErr(cc); err != nil {
				return nil, err
			}
		}
		cand, scores := rev.Row(j) // candidate source rows of column j
		prefBuf = prefBuf[:0]
		for x, i := range cand {
			prefBuf = append(prefBuf, scores[x]-rowMaxes[i]+1)
		}
		orderBuf = sortPrefDesc(prefBuf, cand, orderBuf)
		for r, x := range orderBuf {
			scatter[cand[x]] = int32(r + 1)
		}
		for x := csc.ColPtr[j]; x < csc.ColPtr[j+1]; x++ {
			rankTS[csc.Pos[x]] = scatter[csc.RowIdx[x]]
		}
		for _, i := range cand {
			scatter[i] = 0
		}
	}

	// Combine: average rank with the worst-rank penalty for absences,
	// iterating candidates in top-k order exactly as RInfPB does.
	penalty := float64(m.C + 1)
	realCols := cols - ctx.NumDummies
	pairs := make([]Pair, 0, rows)
	var abstained []int
	var p int32
	for i := 0; i < rows; i++ {
		if i%checkRowStride == 0 {
			if err := ctxErr(cc); err != nil {
				return nil, err
			}
		}
		cand, _ := fwd.Row(i)
		best := math.Inf(1)
		bestJ := -1
		for x := range cand {
			j := int(cand[x])
			rst := float64(rankST[p+int32(x)])
			r2 := penalty
			if rts := rankTS[p+int32(x)]; rts != 0 {
				r2 = float64(rts)
			}
			avg := (rst + r2) / 2
			if avg < best || (avg == best && bestJ >= 0 && j < bestJ) {
				best = avg
				bestJ = j
			}
		}
		p += int32(len(cand))
		if bestJ < 0 || bestJ >= realCols {
			abstained = append(abstained, i)
			continue
		}
		pairs = append(pairs, Pair{Source: i, Target: bestJ, Score: -best})
	}
	return &Result{
		Matcher:   m.Name(),
		Pairs:     pairs,
		Abstained: abstained,
		Elapsed:   time.Since(start),
		// Both graphs, the transpose view with its position join, the two
		// rank arrays, the max vectors and the per-column scatter are live
		// together at peak.
		ExtraBytes: fwd.SizeBytes() + rev.SizeBytes() + int64(fwd.NNZ())*16 +
			int64(cols+1)*8 + int64(rows+cols)*8 + int64(rows)*4 +
			int64(matrix.DefaultTileRows*matrix.DefaultTileCols)*8,
	}, nil
}

// NewRInfSparse returns the sparse reciprocal matcher with candidate budget
// (block size) c.
func NewRInfSparse(c int) *RInfSparse { return &RInfSparse{C: c} }

// sortPrefDesc returns the position permutation sorting prefs in descending
// order with ties broken by ascending key — the same total order as
// argsortDescByKey, which RInfPB uses. Keys are distinct column/row ids, so
// the order is strict and any comparison sort yields the identical
// permutation; insertion sort fits because candidate lists are short and
// arrive nearly sorted (preferences correlate with the stored score order).
// The result reuses buf's storage.
func sortPrefDesc(prefs []float64, keys []int32, buf []int32) []int32 {
	buf = buf[:0]
	for x := range prefs {
		buf = append(buf, int32(x))
	}
	for a := 1; a < len(buf); a++ {
		x := buf[a]
		b := a - 1
		for b >= 0 {
			y := buf[b]
			if prefs[y] > prefs[x] || (prefs[y] == prefs[x] && keys[y] < keys[x]) {
				break
			}
			buf[b+1] = y
			b--
		}
		buf[b+1] = x
	}
	return buf
}
