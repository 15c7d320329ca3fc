package quant

import (
	"context"
	"fmt"
	"slices"
	"sync"

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

// groupWidth bounds the queries one group shares slab reads across — the
// widest register-blocked kernel (dotI8Rows4) — and slotBits is the room a
// slot number takes in a packed walk key.
const (
	slotBits   = 2
	groupWidth = 1 << slotBits
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
	runs  []run               // runs scanned so far, in scan order

	// i8Kernel state: the quantized query and its scale, one int32 score
	// per scanned position (in runs order).
	codeQ []int8
	sq    float64
	ints  []int32
}

type scanScratch struct {
	slots [groupWidth]slot
	keys  []int64      // run<<slotBits|slot for every probed run of the group
	pool  poolSelector // i8Kernel.finish's re-rank pool, one slot at a time
}

func (s *Scanner) getScratch() *scanScratch {
	if sc, ok := s.scratch.Get().(*scanScratch); ok {
		return sc
	}
	sc := new(scanScratch)
	for j := range sc.slots {
		sc.slots[j].cells, sc.slots[j].sel = matrix.NewBoundedTopK(0), matrix.NewBoundedTopK(0)
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
// scored and selected.
type kernel interface {
	// width is the group size the register-blocked form serves.
	width() int
	// begin readies sl for a top-c scan of at most m positions.
	begin(sl *slot, m, c int) error
	// shared scores [lo, hi) for all width slots in one pass over the slab.
	shared(sls []slot, lo, hi int)
	// one scores [lo, hi) for a single slot with the per-pair kernel.
	one(sl *slot, lo, hi int)
	// finish returns sl's top-c; the result aliases sl.sel. sc is the
	// scratch sl belongs to.
	finish(sc *scanScratch, sl *slot, c int) matrix.TopK
}

// Search scores every query row against the runs probe selects for it with
// the exact float64 kernel and returns each row's top-c under (value desc,
// index asc). See scan for the argument contract.
func (s *Scanner) Search(ctx context.Context, queries *matrix.Dense, c int, probe Probe) ([]matrix.TopK, error) {
	return s.scan(ctx, queries, c, probe, f64Kernel{s})
}

// SearchQuant is Search as a two-phase scan: every probed position is scored
// on Codes with the int8 kernel, the top factor×c pool — plus every
// candidate tied with its boundary — is re-scored against Vecs with the
// exact kernel, and the top-c comes from those exact scores. rerank=false
// skips the second phase and returns the approximate scores sq·DotI8.
// Codes and Table must be set.
func (s *Scanner) SearchQuant(ctx context.Context, queries *matrix.Dense, c int, probe Probe, factor int, rerank bool) ([]matrix.TopK, error) {
	return s.scan(ctx, queries, c, probe, i8Kernel{s, factor, rerank})
}

// scan is the grouped run walker. Rejected: nil queries, a query
// dimensionality other than Dim, c < 1. Clamped: c above the corpus size.
//
// Queries are served in groups of k.width(). Each query keeps its own probed
// runs, but the group's runs are walked once, ascending, with a membership
// mask: a run every slot of a full group probes is read once through the
// register-blocked kernel, any other through the per-pair kernel for just
// its members — so a short last group, down to a single query, is simply
// the ragged tail. Blocked and per-pair scores are bit-identical and every
// selector is order-insensitive (BoundedTopK; the pool threshold is a rank
// statistic), so neither grouping nor walk order can change a result.
func (s *Scanner) scan(ctx context.Context, queries *matrix.Dense, c int, probe Probe, k kernel) ([]matrix.TopK, error) {
	if queries == nil {
		return nil, fmt.Errorf("%s: nil queries", s.Tag)
	}
	if queries.Cols() != s.Dim {
		return nil, fmt.Errorf("%s: query dim %d != index dim %d", s.Tag, queries.Cols(), s.Dim)
	}
	if c < 1 {
		return nil, fmt.Errorf("%s: candidate budget %d < 1", s.Tag, c)
	}
	c = min(c, int(s.Bounds[len(s.Bounds)-1]))
	nq, w := queries.Rows(), k.width()
	out := make([]matrix.TopK, nq)
	var firstErr error
	var failed sync.Once
	err := matrix.ParallelRowsCtx(ctx, (nq+w-1)/w, func(g int) {
		sc := s.getScratch()
		defer s.scratch.Put(sc)
		sls := sc.slots[:min(w, nq-g*w)]
		sc.keys = sc.keys[:0]
		for j := range sls {
			sl := &sls[j]
			sl.q, sl.runs = queries.Row(g*w+j), sl.runs[:0]
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
		full := 1<<w - 1
		for x := 0; x < len(sc.keys); {
			r, mask := sc.keys[x]>>slotBits, 0
			for ; x < len(sc.keys) && sc.keys[x]>>slotBits == r; x++ {
				mask |= 1 << (sc.keys[x] & (groupWidth - 1))
			}
			lo, hi := int(s.Bounds[r]), int(s.Bounds[r+1])
			if mask == full {
				k.shared(sls, lo, hi)
			}
			for j := range sls {
				if mask&(1<<j) == 0 {
					continue
				}
				if mask != full {
					k.one(&sls[j], lo, hi)
				}
				sls[j].runs = append(sls[j].runs, run{lo, hi})
			}
		}
		for j := range sls {
			// finish aliases pooled selector storage; copy out before release.
			tk := k.finish(sc, &sls[j], c)
			out[g*w+j] = matrix.TopK{
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

// f64Kernel scores Vecs with matrix.Dot4 / matrix.DotBlock3 and offers
// every score straight to the slot's selector.
type f64Kernel struct{ s *Scanner }

func (f64Kernel) width() int { return 3 }

func (f64Kernel) begin(sl *slot, _, c int) error {
	sl.sel.EnsureK(c)
	return nil
}

func (k f64Kernel) shared(sls []slot, lo, hi int) {
	s, d := k.s, k.s.Dim
	var blk [3]float64
	for p := lo; p < hi; p++ {
		matrix.DotBlock3(sls[0].q, sls[1].q, sls[2].q, s.Vecs[p*d:(p+1)*d], &blk)
		id := s.id(p)
		sls[0].sel.Offer(blk[0], id)
		sls[1].sel.Offer(blk[1], id)
		sls[2].sel.Offer(blk[2], id)
	}
}

func (k f64Kernel) one(sl *slot, lo, hi int) {
	s, d := k.s, k.s.Dim
	for p := lo; p < hi; p++ {
		sl.sel.Offer(matrix.Dot4(sl.q, s.Vecs[p*d:(p+1)*d]), s.id(p))
	}
}

func (f64Kernel) finish(_ *scanScratch, sl *slot, _ int) matrix.TopK { return sl.sel.Finalize() }

// i8Kernel scores Codes with the rows kernels of dot.go — one call per run,
// dotI8Rows4 for a full group and dotI8Rows1 for a single slot — straight
// into the slot's int32 buffer; selection waits for finish, which needs every
// score to place the pool boundary. Integer scores are exact, so the blocked
// and per-slot forms agree bit-for-bit on every kernel tier.
type i8Kernel struct {
	s      *Scanner
	factor int
	rerank bool
}

func (i8Kernel) width() int { return 4 }

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
	return err
}

// extend grows sl.ints by n scores (begin reserved the room) and returns the
// new tail.
func (sl *slot) extend(n int) []int32 {
	l := len(sl.ints)
	sl.ints = sl.ints[:l+n]
	return sl.ints[l:]
}

func (k i8Kernel) shared(sls []slot, lo, hi int) {
	d, n := k.s.Dim, hi-lo
	dotI8Rows4(sls[0].codeQ[:d], sls[1].codeQ[:d], sls[2].codeQ[:d], sls[3].codeQ[:d], k.s.Codes[lo*d:hi*d],
		sls[0].extend(n), sls[1].extend(n), sls[2].extend(n), sls[3].extend(n))
}

func (k i8Kernel) one(sl *slot, lo, hi int) {
	d := k.s.Dim
	dotI8Rows1(sl.codeQ[:d], k.s.Codes[lo*d:hi*d], sl.extend(hi-lo))
}

// rerankAhead is how many pool rows finish prefetches ahead of the one Dot4
// is scoring: pool rows are scattered over Vecs, so without it every row
// costs a cache miss before its arithmetic starts.
const rerankAhead = 3

// finish is the one two-phase tail. Without re-rank every position is
// offered at its approximate score. With it, the pool — every position
// scoring at or above the boundary-tie-inclusive pool threshold, as an
// ascending list — is re-scored against Vecs with the exact kernel. sl.runs
// replays the scan order, so sl.ints needs no parallel position array: the
// list indexes sl.ints and is mapped to slab positions in one walk.
func (k i8Kernel) finish(sc *scanScratch, sl *slot, c int) matrix.TopK {
	s, d := k.s, k.s.Dim
	sl.sel.EnsureK(c)
	if !k.rerank {
		x := 0
		for _, r := range sl.runs {
			for p := r.lo; p < r.hi; p, x = p+1, x+1 {
				sl.sel.Offer(sl.sq*float64(sl.ints[x]), s.id(p))
			}
		}
		return sl.sel.Finalize()
	}
	_, pool := sc.pool.run(sl.ints, PoolSize(k.factor, c, len(sl.ints)))
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
		sl.sel.Offer(matrix.Dot4(sl.q, s.Vecs[p*d:(p+1)*d]), s.id(p))
	}
	return sl.sel.Finalize()
}
