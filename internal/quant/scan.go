package quant

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"entmatcher/internal/matrix"
)

// PoolSize resolves the phase-1 pool bound for a top-c request over an
// n-candidate corpus: factor×c, clamped to n. factor <= 0 means the
// default.
func PoolSize(factor, c, n int) int {
	if factor <= 0 {
		factor = DefaultRerankFactor
	}
	p := factor * c
	if p > n || p < 0 { // < 0: int overflow on huge factor×c
		p = n
	}
	return p
}

// Scanner is the one scan core under every indexed search — ann.IVF.Search,
// ann.IVF.SearchQuant and the flat SQ8 scans of Source are thin callers. It
// is three parts: the candidate set (the runs a Probe selects out of
// Bounds), the walker (scan: one merged pass over a query group's runs) and
// a kernel that owns the bytes (f64Kernel over Vecs; i8Kernel over Codes,
// finishing against Vecs).
//
// The slab fields describe one corpus in position order and must not change
// once searches run. A Scanner holds a sync.Pool and must not be copied.
type Scanner struct {
	Tag    string    // owning package, the prefix of argument errors
	Dim    int       // row dimensionality
	Bounds []int64   // run r spans positions [Bounds[r], Bounds[r+1]); ascending
	IDs    []int32   // position → emitted index; nil means the position itself
	Vecs   []float64 // float64 rows: the exact kernel's operand, the re-rank table
	Codes  []int8    // SQ8 codes of the same rows; nil without a quantized table
	Table  *Table    // the quantizer behind Codes (query folding)

	// scratch pools one worker's group state across queries AND across
	// calls, so a search allocates only its escaping results.
	scratch sync.Pool
}

// Probe returns the runs one query scans — distinct run ids, in any order —
// and may rank them in cells; the result may alias cells' storage. A nil
// Probe is the flat scan: run 0 of a single-run Scanner.
type Probe func(q []float64, cells *matrix.BoundedTopK) []int

var flatRun = []int{0}

// groupWidth bounds the queries one group walks together — the width of the
// register-blocked int8 kernel (dotI8Rows4) — and slotBits is the room a
// slot number takes in a packed walk key. fullMask is the membership mask of
// a run every slot of a full group probes.
const (
	slotBits   = 2
	groupWidth = 1 << slotBits
	fullMask   = 1<<groupWidth - 1
)

// run is a contiguous span [lo, hi) of slab positions.
type run struct{ lo, hi int }

// slot is one query's state within a group. Every buffer grows to the
// largest request served and is then reused, so a warmed slot handles any
// (c, probe set) without allocating.
type slot struct {
	q     []float64
	cells *matrix.BoundedTopK // the Probe's ranking scratch
	sel   *matrix.BoundedTopK // top-c selector
	stat  *matrix.BoundedTopK // the column statistic's top-kCol selector
	runs  []run               // runs scanned so far, in scan order

	// i8Kernel state: the quantized query and its scale, one int32 score
	// per scanned position (in runs order).
	codeQ []int8
	sq    float64
	ints  []int32
}

type scanScratch struct {
	slots  [groupWidth]slot
	keys   []int64      // run<<slotBits|slot for every probed run of the group
	dots   []float64    // f64Kernel's scores of one run for one slot
	pool   poolSelector // i8Kernel.finish's re-rank pool, one slot at a time
	pooled []int32      // the int8 scores of the pool's members, in pool order
}

func (s *Scanner) getScratch() *scanScratch {
	if sc, ok := s.scratch.Get().(*scanScratch); ok {
		return sc
	}
	sc := new(scanScratch)
	for j := range sc.slots {
		sl := &sc.slots[j]
		sl.cells, sl.sel, sl.stat = matrix.NewBoundedTopK(0), matrix.NewBoundedTopK(0), matrix.NewBoundedTopK(0)
	}
	return sc
}

// id maps a slab position to the index a search emits for it.
func (s *Scanner) id(p int) int {
	if s.IDs == nil {
		return p
	}
	return int(s.IDs[p])
}

// kernel scores slab positions for the slots of one group. The walker
// decides WHICH positions each slot sees; the kernel decides how they are
// scored and selected. sc is the scratch the slots belong to.
type kernel interface {
	// begin readies sl for a top-c scan of at most m positions.
	begin(sl *slot, m, c int) error
	// score scores positions [lo, hi) for every slot sls[j] whose bit j is
	// set in mask.
	score(sc *scanScratch, sls []slot, mask, lo, hi int)
	// finish returns sl's top-c, aliasing sl.sel, and for kCol > 0 the
	// column statistic a kCol-budget scan of the same query selects: the
	// mean of its top-kCol, best first (matrix.HeadMean).
	finish(sc *scanScratch, sl *slot, c, kCol int) (matrix.TopK, float64)
}

// Search scores every query row against the runs probe selects for it with
// the exact float64 kernel and returns each row's top-c under (value desc,
// index asc). See scan for the argument contract.
func (s *Scanner) Search(ctx context.Context, queries *matrix.Dense, c int, probe Probe) ([]matrix.TopK, error) {
	return s.scan(ctx, queries, c, probe, f64Kernel{s}, 0, nil)
}

// SearchQuant is Search as a two-phase scan: every probed position is scored
// on Codes with the int8 kernel, the top factor×c pool — plus every
// candidate tied with its boundary — is re-scored against Vecs with the
// exact kernel, and the top-c comes from those exact scores. rerank=false
// skips the second phase and returns the approximate scores sq·DotI8.
// Codes and Table must be set.
//
// A non-nil means (one entry per query, 1 <= kCol <= c) asks for a
// by-product: means[q] is what matrix.TopKMeans gives for query q's answer
// to a separate kCol-budget SearchQuant, bit for bit. The int8 scores do not
// depend on the budget and the kCol pool is the top of this one, so the
// statistic costs a rank statistic over the pool's scores and no rescan.
func (s *Scanner) SearchQuant(ctx context.Context, queries *matrix.Dense, c int, probe Probe, factor int, rerank bool, kCol int, means []float64) ([]matrix.TopK, error) {
	return s.scan(ctx, queries, c, probe, i8Kernel{s, factor, rerank}, kCol, means)
}

// scanTally counts the int8 scan's work since the process started: query
// rows searched and positions scored. Tests read it to pin how many scans an
// engine runs; nothing else does.
var scanTally struct{ queries, positions atomic.Int64 }

// scan is the grouped run walker. Rejected: nil queries, a query
// dimensionality other than Dim, c < 1. Clamped: c above the corpus size.
//
// Queries are served in groups of groupWidth. Each query keeps its own probed
// runs, but the group's runs are walked once, ascending, and each run is
// scored for just the slots whose bit is set in its membership mask — so a
// short last group, down to a single query, is simply the ragged tail. A
// kernel's scores do not depend on which slots share a run, and every
// selector is order-insensitive (BoundedTopK; the pool threshold is a rank
// statistic), so neither grouping nor walk order can change a result.
//
// means, when non-nil, receives each query's column statistic at kCol (see
// SearchQuant). Rejected: a means length other than the query count, kCol
// outside [1, c]. kCol is clamped with c.
func (s *Scanner) scan(ctx context.Context, queries *matrix.Dense, c int, probe Probe, k kernel, kCol int, means []float64) ([]matrix.TopK, error) {
	if queries == nil {
		return nil, fmt.Errorf("%s: nil queries", s.Tag)
	}
	if queries.Cols() != s.Dim {
		return nil, fmt.Errorf("%s: query dim %d != index dim %d", s.Tag, queries.Cols(), s.Dim)
	}
	if c < 1 {
		return nil, fmt.Errorf("%s: candidate budget %d < 1", s.Tag, c)
	}
	nq := queries.Rows()
	if means == nil {
		kCol = 0
	} else if len(means) != nq || kCol < 1 || kCol > c {
		return nil, fmt.Errorf("%s: column statistic at k = %d into %d means for %d queries at budget %d", s.Tag, kCol, len(means), nq, c)
	}
	c = min(c, int(s.Bounds[len(s.Bounds)-1]))
	kCol = min(kCol, c)
	out := make([]matrix.TopK, nq)
	var firstErr error
	var failed sync.Once
	err := matrix.ParallelRowsCtx(ctx, (nq+groupWidth-1)/groupWidth, func(g int) {
		sc := s.getScratch()
		defer s.scratch.Put(sc)
		sls := sc.slots[:min(groupWidth, nq-g*groupWidth)]
		sc.keys = sc.keys[:0]
		for j := range sls {
			sl := &sls[j]
			sl.q, sl.runs = queries.Row(g*groupWidth+j), sl.runs[:0]
			runs := flatRun
			if probe != nil {
				runs = probe(sl.q, sl.cells)
			}
			m := 0
			for _, r := range runs {
				sc.keys = append(sc.keys, int64(r)<<slotBits|int64(j))
				m += int(s.Bounds[r+1] - s.Bounds[r])
			}
			if err := k.begin(sl, m, c); err != nil {
				failed.Do(func() { firstErr = err })
				return
			}
		}
		slices.Sort(sc.keys)
		for x := 0; x < len(sc.keys); {
			r, mask := sc.keys[x]>>slotBits, 0
			for ; x < len(sc.keys) && sc.keys[x]>>slotBits == r; x++ {
				mask |= 1 << (sc.keys[x] & (groupWidth - 1))
			}
			lo, hi := int(s.Bounds[r]), int(s.Bounds[r+1])
			k.score(sc, sls, mask, lo, hi)
			for j := range sls {
				if mask&(1<<j) != 0 {
					sls[j].runs = append(sls[j].runs, run{lo, hi})
				}
			}
		}
		for j := range sls {
			// finish aliases pooled selector storage; copy out before release.
			tk, stat := k.finish(sc, &sls[j], c, kCol)
			if means != nil {
				means[g*groupWidth+j] = stat
			}
			out[g*groupWidth+j] = matrix.TopK{
				Values:  append([]float64(nil), tk.Values...),
				Indices: append([]int(nil), tk.Indices...),
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// f64Kernel scores Vecs with the tile kernel — one matrix.TileKernel call
// per run and member slot, the run's rows as the row group and the slot's
// query as the one target, so every score is the query's Dot4 with the row,
// bit for bit — into pooled scratch, then offers the run's scores to the
// slot's selector.
type f64Kernel struct{ s *Scanner }

func (f64Kernel) begin(sl *slot, _, c int) error {
	sl.sel.EnsureK(c)
	return nil
}

func (k f64Kernel) score(sc *scanScratch, sls []slot, mask, lo, hi int) {
	s, d, n := k.s, k.s.Dim, hi-lo
	if cap(sc.dots) < n {
		sc.dots = make([]float64, n)
	}
	dots := sc.dots[:n]
	for j := range sls {
		if mask&(1<<j) == 0 {
			continue
		}
		matrix.TileKernel(dots, s.Vecs[lo*d:hi*d], sls[j].q, n, d, 1)
		for i, v := range dots {
			sls[j].sel.Offer(v, s.id(lo+i))
		}
	}
}

// finish: the float scores do not depend on the budget, so a kCol-budget
// scan selects this one's first kCol.
func (f64Kernel) finish(_ *scanScratch, sl *slot, _, kCol int) (matrix.TopK, float64) {
	tk := sl.sel.Finalize()
	return tk, matrix.HeadMean(tk.Values, kCol)
}

// i8Kernel scores Codes with the rows kernels of dot.go — one call per run,
// dotI8Rows4 when every slot of a full group probes it and dotI8Rows1 per
// member slot otherwise — straight into the slots' int32 buffers; selection
// waits for finish, which needs every score to place the pool boundary.
// Integer scores are exact, so the blocked and per-slot forms agree
// bit-for-bit on every kernel tier.
type i8Kernel struct {
	s      *Scanner
	factor int
	rerank bool
}

func (k i8Kernel) begin(sl *slot, m, c int) error {
	if d := k.s.Dim; cap(sl.codeQ) < d {
		sl.codeQ = make([]int8, d)
	}
	if cap(sl.ints) < m {
		sl.ints = make([]int32, 0, m)
	}
	sl.ints = sl.ints[:0]
	var err error
	sl.sq, err = k.s.Table.QuantizeQuery(sl.q, sl.codeQ[:k.s.Dim])
	if err == nil {
		scanTally.queries.Add(1)
		scanTally.positions.Add(int64(m))
	}
	return err
}

// extend grows sl.ints by n scores (begin reserved the room) and returns the
// new tail.
func (sl *slot) extend(n int) []int32 {
	l := len(sl.ints)
	sl.ints = sl.ints[:l+n]
	return sl.ints[l:]
}

func (k i8Kernel) score(_ *scanScratch, sls []slot, mask, lo, hi int) {
	d, n := k.s.Dim, hi-lo
	codes := k.s.Codes[lo*d : hi*d]
	if mask == fullMask {
		dotI8Rows4(sls[0].codeQ[:d], sls[1].codeQ[:d], sls[2].codeQ[:d], sls[3].codeQ[:d], codes,
			sls[0].extend(n), sls[1].extend(n), sls[2].extend(n), sls[3].extend(n))
		return
	}
	for j := range sls {
		if mask&(1<<j) != 0 {
			dotI8Rows1(sls[j].codeQ[:d], codes, sls[j].extend(n))
		}
	}
}

// rerankAhead is how many pool rows finish prefetches ahead of the one Dot4
// is scoring: pool rows are scattered over Vecs, so without it every row
// costs a cache miss before its arithmetic starts.
const rerankAhead = 3

// finish is the one two-phase tail. Without re-rank every position is
// offered at its approximate score, and a kCol-budget scan would select the
// first kCol of the same order. With it, the pool — every position scoring
// at or above the boundary-tie-inclusive pool threshold, as an ascending
// list — is re-scored against Vecs with the exact kernel. sl.runs replays
// the scan order, so sl.ints needs no parallel position array: the list
// indexes sl.ints and is mapped to slab positions in one walk.
//
// The column statistic rides the re-rank. A kCol-budget scan pools the
// positions scoring at least thK, the PoolSize(factor, kCol, n)-th largest
// int8 score; PoolSize grows with the budget, so that pool is the top of
// this one and thK is the same rank statistic over this pool's scores alone.
// Its members' exact scores are offered to sl.stat as they are computed,
// and BoundedTopK's selection does not depend on offer order.
func (k i8Kernel) finish(sc *scanScratch, sl *slot, c, kCol int) (matrix.TopK, float64) {
	s, d := k.s, k.s.Dim
	sl.sel.EnsureK(c)
	if !k.rerank {
		x := 0
		for _, r := range sl.runs {
			for p := r.lo; p < r.hi; p, x = p+1, x+1 {
				sl.sel.Offer(sl.sq*float64(sl.ints[x]), s.id(p))
			}
		}
		tk := sl.sel.Finalize()
		return tk, matrix.HeadMean(tk.Values, kCol)
	}
	n := len(sl.ints)
	_, pool := sc.pool.run(sl.ints, PoolSize(k.factor, c, n))
	thK := int32(math.MinInt32)
	if kCol > 0 {
		sl.stat.EnsureK(kCol)
		sc.pooled = grow(sc.pooled, len(pool))
		for i, x := range pool {
			sc.pooled[i] = sl.ints[x]
		}
		if pk := PoolSize(k.factor, kCol, n); pk < n {
			thK = sc.pool.kthOf(sc.pooled, pk)
		}
	}
	ri, off := 0, 0 // pool[i] lies in sl.runs[ri], whose first score is sl.ints[off]
	for i, x := range pool {
		for int(x)-off >= sl.runs[ri].hi-sl.runs[ri].lo {
			off += sl.runs[ri].hi - sl.runs[ri].lo
			ri++
		}
		pool[i] = int32(sl.runs[ri].lo + int(x) - off)
	}
	for i, p32 := range pool {
		if i+rerankAhead < len(pool) {
			a := int(pool[i+rerankAhead])
			prefetchRow(s.Vecs[a*d : (a+1)*d])
		}
		p := int(p32)
		v, id := matrix.Dot4(sl.q, s.Vecs[p*d:(p+1)*d]), s.id(p)
		sl.sel.Offer(v, id)
		if kCol > 0 && sc.pooled[i] >= thK {
			sl.stat.Offer(v, id)
		}
	}
	tk := sl.sel.Finalize()
	if kCol == 0 {
		return tk, 0
	}
	return tk, matrix.HeadMean(sl.stat.Finalize().Values, kCol)
}
