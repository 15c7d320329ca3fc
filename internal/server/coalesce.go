package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"entmatcher/internal/matrix"
)

// This file implements server-side request coalescing for /match/topk
// (DESIGN.md § 13). Cache misses arriving while the server is busy are
// collected into a bounded window (Config.MaxBatch entries, held open at
// most Config.MaxWait) and served by Server.lookup — the same ladder walk a
// lone request takes — once per distinct k, so the tiers' row searches feed
// the register-blocked multi-query kernels and one pass over the corpus
// slabs answers the whole window. Identical (row, k) requests are
// deduplicated singleflight-style into a single window entry.
//
// The contract that makes coalescing invisible to clients:
//
//   - Identity: a tier's answer for a row does not depend on the rows asked
//     alongside it (TestRowAnswerIndependentOfBatchmates, and
//     conformance-pinned under it), and a window makes one lookup per
//     DISTINCT k, so a coalesced response carries exactly the bytes a lone
//     one would.
//   - Isolation: the batch runs under a context carrying the server's
//     RequestTimeout but detached from every member request, so one
//     client's disconnect or deadline cannot poison its batchmates — the
//     abandoning waiter just stops listening.
//   - Zero steady-state allocation: windows, entries, waiters, and timers
//     are pooled; the enqueue/wait/wake machinery allocates nothing per
//     query once warm (pinned by TestCoalescerSteadyStateAllocs).

// batchResult is one (row, k) query's share of a lookup: what the handler
// builds the response from on either path, and what a window entry fans out
// to every waiter. The TopK and degraded slices are shared read-only.
type batchResult struct {
	top      matrix.TopK
	servedBy string
	degraded []string
	err      error
}

func (r batchResult) settled() bool { return r.servedBy != "" || r.err != nil }

// batchWaiter is one request's rendezvous with its window entry. The
// buffered channel guarantees the executor's send never blocks; abandoned
// arbitrates the waiter-gave-up/executor-delivered race: both sides CAS
// false→true, and the winner dictates who returns the struct to the pool
// (executor reclaims abandoned waiters, waiters reclaim delivered ones).
type batchWaiter struct {
	ch        chan batchResult
	abandoned atomic.Bool
}

// batchItem is one deduplicated (row, k) query in a window and the waiters
// attached to it.
type batchItem struct {
	row, k  int
	waiters []*batchWaiter
	res     batchResult
}

// batchWindow is one collection round: the deduplicated items, the key
// index, a full-signal for the leader, and reusable scratch for execution.
type batchWindow struct {
	items  []*batchItem
	byKey  map[int64]*batchItem
	joined int           // requests attached (leader + joiners, dups included)
	full   chan struct{} // buffered 1; signaled when the window seals early
	rows   []int         // execution scratch: one group's rows
}

// coalescer batches concurrent /match/topk cache misses. The first miss to
// find no open window becomes the leader: it opens one, holds it for up to
// maxWait (or until maxBatch entries, or until every in-flight request has
// attached — see sealIfComplete), seals it, looks each distinct k up once,
// and fans results out. Later misses join the open window and
// just wait. Everything is pooled, so the steady-state path allocates
// nothing per query.
type coalescer struct {
	s        *Server
	maxBatch int
	maxWait  time.Duration

	mu      sync.Mutex
	pending *batchWindow // open window accepting joiners; nil otherwise

	windows sync.Pool // *batchWindow
	items   sync.Pool // *batchItem
	waiters sync.Pool // *batchWaiter
	timers  sync.Pool // *time.Timer, stopped and drained
}

func newCoalescer(s *Server) *coalescer {
	c := &coalescer{s: s, maxBatch: s.cfg.MaxBatch, maxWait: s.cfg.MaxWait}
	c.windows.New = func() any {
		return &batchWindow{byKey: make(map[int64]*batchItem), full: make(chan struct{}, 1)}
	}
	c.items.New = func() any { return new(batchItem) }
	c.waiters.New = func() any { return &batchWaiter{ch: make(chan batchResult, 1)} }
	c.timers.New = func() any {
		t := time.NewTimer(time.Hour)
		if !t.Stop() {
			<-t.C
		}
		return t
	}
	return c
}

// do serves one cache miss through the coalescer. The returned error is
// non-nil only when ctx expired while waiting on the batch; a lookup
// failure travels inside the batchResult so the caller maps it to the same
// status codes as on the lone path.
func (c *coalescer) do(ctx context.Context, row, k int) (batchResult, error) {
	key := int64(row)<<32 | int64(k)
	w := c.waiters.Get().(*batchWaiter)
	w.abandoned.Store(false)

	c.mu.Lock()
	if win := c.pending; win != nil {
		win.joined++
		if it, ok := win.byKey[key]; ok {
			// Singleflight: an identical query is already in the window.
			it.waiters = append(it.waiters, w)
			c.sealIfComplete(win)
			c.mu.Unlock()
			c.s.coalescedDup.Add(1)
			return c.await(ctx, w)
		}
		it := c.newItem(row, k, w)
		win.items = append(win.items, it)
		win.byKey[key] = it
		if len(win.items) >= c.maxBatch {
			// Seal: the leader wakes and executes; newcomers open a fresh
			// window.
			c.pending = nil
			select {
			case win.full <- struct{}{}:
			default:
			}
		} else {
			c.sealIfComplete(win)
		}
		c.mu.Unlock()
		return c.await(ctx, w)
	}

	// Leader: open a window with our own query and hold it for batchmates.
	win := c.windows.Get().(*batchWindow)
	win.joined = 1
	it := c.newItem(row, k, w)
	win.items = append(win.items, it)
	win.byKey[key] = it
	c.pending = win
	c.mu.Unlock()

	t := c.timers.Get().(*time.Timer)
	t.Reset(c.maxWait)
	select {
	case <-win.full:
		if !t.Stop() {
			<-t.C
		}
	case <-t.C:
		c.mu.Lock()
		if c.pending == win {
			c.pending = nil
		}
		c.mu.Unlock()
	}
	c.timers.Put(t)

	c.execute(win)
	c.release(win)
	// Our own result is already sitting in the buffered channel.
	return c.await(ctx, w)
}

// sealIfComplete seals the window early (adaptive sealing) once every
// in-flight request is attached to it: with the whole admitted population
// already waiting, holding the window open for maxWait can only add idle
// latency — nobody is left to join. Called with c.mu held. The inflight
// reading is a snapshot (requests that arrive right after will open the
// next window) and can only err toward sealing early, which is always
// correct: it shrinks a batch, never a result.
func (c *coalescer) sealIfComplete(win *batchWindow) {
	// Below two in flight the reading is meaningless (the handler only
	// routes here above one; direct do() callers bypass the gate), so the
	// window falls back to the maxWait/maxBatch bounds.
	if n := c.s.inflight.Load(); n < 2 || int64(win.joined) < n {
		return
	}
	c.pending = nil
	select {
	case win.full <- struct{}{}:
	default:
	}
}

func (c *coalescer) newItem(row, k int, w *batchWaiter) *batchItem {
	it := c.items.Get().(*batchItem)
	it.row, it.k = row, k
	it.waiters = append(it.waiters, w)
	return it
}

// await blocks until the waiter's result arrives or ctx expires. On expiry
// it races the executor for the waiter: winning the CAS hands the struct to
// the executor for reclamation; losing means a result is in flight, so it
// is drained and returned (the handler decides what to do with a result
// whose client already gave up — same as on the lone path).
func (c *coalescer) await(ctx context.Context, w *batchWaiter) (batchResult, error) {
	select {
	case res := <-w.ch:
		c.waiters.Put(w)
		return res, nil
	case <-ctx.Done():
		if w.abandoned.CompareAndSwap(false, true) {
			return batchResult{}, ctx.Err()
		}
		res := <-w.ch
		c.waiters.Put(w)
		return res, nil
	}
}

// execute runs the sealed window: one lookup per distinct k (items are
// sorted so each same-k run becomes one blocked batch scan), then fans every
// item's result out to its waiters.
func (c *coalescer) execute(win *batchWindow) {
	items := win.items
	n := int64(len(items))
	c.s.batches.Add(1)
	c.s.batchedQueries.Add(n)
	for {
		cur := c.s.maxBatchSeen.Load()
		if n <= cur || c.s.maxBatchSeen.CompareAndSwap(cur, n) {
			break
		}
	}

	// The batch context is detached from every member request on purpose:
	// one client's cancellation must not poison its batchmates. The
	// server-wide deadline still applies.
	bctx, cancel := context.WithTimeout(context.Background(), c.s.cfg.RequestTimeout)
	defer cancel()

	// Insertion sort by k (windows are small): each same-k run is served by
	// one lookup, keeping every answer bit-identical to a lone query at that
	// exact k — no cross-k over-fetch to reason about.
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].k < items[j-1].k; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	for lo := 0; lo < len(items); {
		hi := lo + 1
		for hi < len(items) && items[hi].k == items[lo].k {
			hi++
		}
		c.serveGroup(bctx, win, items[lo:hi])
		lo = hi
	}

	for _, it := range items {
		for _, w := range it.waiters {
			if w.abandoned.CompareAndSwap(false, true) {
				w.ch <- it.res // buffered: never blocks
			} else {
				c.waiters.Put(w) // waiter gave up; reclaim its struct
			}
		}
	}
}

// serveGroup looks a same-k group up in one walk of the ladder and hands each
// item its share. A panic fails the group (contained here so batchmate
// handlers never hang on a torn leader).
func (c *coalescer) serveGroup(ctx context.Context, win *batchWindow, group []*batchItem) {
	defer func() {
		if rec := recover(); rec != nil {
			for _, it := range group {
				if !it.res.settled() {
					it.res = batchResult{err: fmt.Errorf("batch searcher panic: %v", rec)}
				}
			}
		}
	}()
	rows := win.rows[:0]
	for _, it := range group {
		rows = append(rows, it.row)
	}
	win.rows = rows
	tops, servedBy, degraded, err := c.s.lookup(ctx, rows, group[0].k)
	for i, it := range group {
		it.res = batchResult{servedBy: servedBy, degraded: degraded, err: err}
		if err == nil {
			it.res.top = tops[i]
		}
	}
}

// release resets the executed window and returns it and its items to the
// pools. Results have already been fanned out; only struct plumbing is
// recycled here (the TopK payloads travel with the batchResults).
func (c *coalescer) release(win *batchWindow) {
	for _, it := range win.items {
		it.waiters = it.waiters[:0]
		it.res = batchResult{}
		c.items.Put(it)
	}
	win.items = win.items[:0]
	win.joined = 0
	clear(win.byKey)
	win.rows = win.rows[:0]
	select {
	case <-win.full: // a filler may have signaled after the leader timed out
	default:
	}
	c.windows.Put(win)
}
