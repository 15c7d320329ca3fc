package quant

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"entmatcher/internal/matrix"
)

// PoolThreshold returns the boundary of the re-rank pool: the p-th largest
// value in scores. Candidates scoring >= the boundary form the pool, so
// every candidate TIED with the boundary is included — the rule that makes
// the two-phase scan exact in degenerate regimes: when quantization
// collapses many scores to the same integer (all-constant tables, 1-ulp
// near-ties), the tie set spans the whole collapse and the re-rank becomes
// exhaustive over it. p >= len(scores) returns math.MinInt32 (everything
// pools). heapBuf is scratch of capacity >= p, reused across calls.
func PoolThreshold(scores []int32, p int, heapBuf []int32) int32 {
	if p >= len(scores) {
		return math.MinInt32
	}
	if p < 1 {
		p = 1
	}
	// Values-only min-heap of the p largest: the root is the boundary.
	h := heapBuf[:0]
	for _, v := range scores {
		if len(h) < p {
			h = append(h, v)
			if len(h) == p {
				for i := p/2 - 1; i >= 0; i-- {
					siftDownI32(h, i)
				}
			}
			continue
		}
		if v > h[0] {
			h[0] = v
			siftDownI32(h, 0)
		}
	}
	if len(h) < p {
		// Unreachable (p < len(scores) fills the heap), kept as a guard.
		for i := len(h)/2 - 1; i >= 0; i-- {
			siftDownI32(h, i)
		}
	}
	return h[0]
}

// siftDownI32 restores the min-heap property below node i.
func siftDownI32(h []int32, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && h[r] < h[l] {
			j = r
		}
		if h[j] >= h[i] {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

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
// widest register-blocked kernel (DotI8Block4) — and slotBits is the room a
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
	// per scanned position (in runs order), the threshold heap.
	codeQ   []int8
	sq      float64
	ints    []int32
	heapBuf []int32
}

type scanScratch struct {
	slots [groupWidth]slot
	keys  []int64 // run<<slotBits|slot for every probed run of the group
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
	// finish returns sl's top-c; the result aliases sl.sel.
	finish(sl *slot, c int) matrix.TopK
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
			tk := k.finish(&sls[j], c)
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

func (f64Kernel) finish(sl *slot, _ int) matrix.TopK { return sl.sel.Finalize() }

// i8Kernel scores Codes with DotI8 / DotI8Block4 into the slot's int32
// buffer; selection waits for finish, which needs every score to place the
// pool boundary. Integer scores are exact, so the blocked and per-pair forms
// agree bit-for-bit.
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
	if p := PoolSize(k.factor, c, m); cap(sl.heapBuf) < p {
		sl.heapBuf = make([]int32, 0, p)
	}
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
	s, d := k.s, k.s.Dim
	q0, q1, q2, q3 := sls[0].codeQ[:d], sls[1].codeQ[:d], sls[2].codeQ[:d], sls[3].codeQ[:d]
	o0, o1, o2, o3 := sls[0].extend(hi-lo), sls[1].extend(hi-lo), sls[2].extend(hi-lo), sls[3].extend(hi-lo)
	var blk [4]int32
	for i := range o0 {
		p := lo + i
		DotI8Block4(q0, q1, q2, q3, s.Codes[p*d:(p+1)*d], &blk)
		o0[i], o1[i], o2[i], o3[i] = blk[0], blk[1], blk[2], blk[3]
	}
}

func (k i8Kernel) one(sl *slot, lo, hi int) {
	s, d := k.s, k.s.Dim
	q, o := sl.codeQ[:d], sl.extend(hi-lo)
	for i := range o {
		p := lo + i
		o[i] = DotI8(q, s.Codes[p*d:(p+1)*d])
	}
}

// finish is the one two-phase tail: with re-rank, every position scoring at
// or above the boundary-tie-inclusive pool threshold is re-scored against
// Vecs with the exact kernel; without, every position is offered at its
// approximate score. sl.runs replays the scan order, so sl.ints needs no
// parallel position array.
func (k i8Kernel) finish(sl *slot, c int) matrix.TopK {
	s, d := k.s, k.s.Dim
	th := int32(math.MinInt32)
	if k.rerank {
		th = PoolThreshold(sl.ints, PoolSize(k.factor, c, len(sl.ints)), sl.heapBuf)
	}
	sl.sel.EnsureK(c)
	x := 0
	for _, r := range sl.runs {
		for p := r.lo; p < r.hi; p, x = p+1, x+1 {
			v := sl.ints[x]
			if v < th {
				continue
			}
			if k.rerank {
				sl.sel.Offer(matrix.Dot4(sl.q, s.Vecs[p*d:(p+1)*d]), s.id(p))
			} else {
				sl.sel.Offer(sl.sq*float64(v), s.id(p))
			}
		}
	}
	return sl.sel.Finalize()
}
