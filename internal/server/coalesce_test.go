package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"entmatcher/internal/matrix"
)

// TestCoalescedStormIdentity fires a concurrent request storm at a
// coalescing server and checks every answer byte-for-byte against an
// identical server with coalescing disabled: batching, dedup, and window
// timing must be invisible in the response payload — on a healthy ladder and
// on one whose index tier is down, where both paths must degrade to the same
// tier and say so the same way. Run under -race this also exercises the
// window handoff protocol.
func TestCoalescedStormIdentity(t *testing.T) {
	t.Run("healthy", func(t *testing.T) { stormIdentity(t, "ann", nil) })
	t.Run("degraded", func(t *testing.T) {
		stormIdentity(t, "exact", []any{"ann"},
			WithPrimarySearcher(&failSearcher{err: errors.New("injected index failure")}))
	})
}

func stormIdentity(t *testing.T, servedBy string, degradedFrom any, opts ...Option) {
	snap := testSnapshot(t, 40, 40, 8, 4)
	coalesced, err := NewFromSnapshot(snap, Config{
		MaxInFlight: 128, MaxBatch: 8, MaxWait: 20 * time.Millisecond,
	}, opts...)
	if err != nil {
		t.Fatalf("NewFromSnapshot(coalesced): %v", err)
	}
	direct, err := NewFromSnapshot(snap, Config{MaxInFlight: 128, MaxBatch: 1}, opts...)
	if err != nil {
		t.Fatalf("NewFromSnapshot(direct): %v", err)
	}
	if direct.coal != nil {
		t.Fatal("MaxBatch 1 should leave every request on the lone path")
	}
	// Pace the coalesced server like a production corpus so the storm's
	// requests overlap and windows actually form; the payloads are
	// untouched, so the identity check is unaffected.
	slowTiers(coalesced, 2*time.Millisecond)

	const workers = 24
	const rounds = 3
	h := coalesced.Handler()
	var wg sync.WaitGroup
	var barrier sync.WaitGroup
	type answer struct {
		status int
		body   map[string]any
	}
	answers := make([][rounds]answer, workers)
	barrier.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			barrier.Done()
			barrier.Wait() // all workers release together: real concurrency
			for r := 0; r < rounds; r++ {
				// Overlapping rows across workers: some rounds dedup inside
				// a window, some coalesce distinct rows into one scan.
				row := (w + r*5) % 12
				k := 3 + (w%2)*2
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
					fmt.Sprintf("/match/topk?row=%d&k=%d", row, k), nil))
				var body map[string]any
				if rec.Code == http.StatusOK {
					body = decodeBody(t, rec)
				}
				answers[w][r] = answer{rec.Code, body}
			}
		}(w)
	}
	wg.Wait()

	for w := 0; w < workers; w++ {
		for r := 0; r < rounds; r++ {
			a := answers[w][r]
			if a.status != http.StatusOK {
				t.Fatalf("worker %d round %d: status %d", w, r, a.status)
			}
			row := (w + r*5) % 12
			k := 3 + (w%2)*2
			want := getJSON(t, direct.Handler(),
				fmt.Sprintf("/match/topk?row=%d&k=%d", row, k), http.StatusOK)
			if want["served_by"] != servedBy || !reflect.DeepEqual(want["degraded_from"], degradedFrom) {
				t.Fatalf("row %d k %d: lone path served_by %v degraded_from %v, want %v %v",
					row, k, want["served_by"], want["degraded_from"], servedBy, degradedFrom)
			}
			// Whether the LRU answered is timing; everything else is the payload.
			delete(a.body, "cached")
			delete(want, "cached")
			if !reflect.DeepEqual(a.body, want) {
				t.Fatalf("row %d k %d: coalesced body %v != lone %v", row, k, a.body, want)
			}
		}
	}
	st := coalesced.Stats()
	if st.Batches == 0 {
		t.Fatal("storm produced no coalesced batches")
	}
	if st.BatchedQueries < st.Batches {
		t.Fatalf("batched queries %d < batches %d", st.BatchedQueries, st.Batches)
	}
	if st.MaxBatchSize < 2 {
		t.Fatalf("storm never formed a multi-query window (max batch %d)", st.MaxBatchSize)
	}
	t.Logf("storm: batches=%d batched=%d dedup=%d max=%d",
		st.Batches, st.BatchedQueries, st.CoalescedDup, st.MaxBatchSize)
}

func decodeBody(t *testing.T, rec *httptest.ResponseRecorder) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON %q: %v", rec.Body, err)
	}
	return out
}

// slowSearcher delays every search so tests can interleave cancellations
// with an in-flight batch, then delegates to the wrapped lookup side.
type slowSearcher struct {
	inner   TopKSearcher
	delay   time.Duration
	started chan struct{} // closed when the first search begins
	once    sync.Once
}

func (s *slowSearcher) Search(ctx context.Context, rows []int, k int) ([]matrix.TopK, error) {
	if s.started != nil {
		s.once.Do(func() { close(s.started) })
	}
	time.Sleep(s.delay)
	return s.inner.Search(ctx, rows, k)
}

// slowTiers wraps every tier's lookup side in a fixed delay, standing in for
// the scan time of a production-sized corpus so concurrent requests genuinely
// overlap and windows form.
func slowTiers(srv *Server, delay time.Duration) {
	for _, t := range srv.tiers {
		t.rows = &slowSearcher{inner: t.rows, delay: delay}
	}
}

// soleTier cuts the ladder down to its last tier (the exact scan) with the
// lookup side replaced, so a test drives the coalescer over exactly one
// searcher.
func soleTier(srv *Server, rows TopKSearcher) {
	srv.tiers = srv.tiers[len(srv.tiers)-1:]
	srv.tiers[0].rows = rows
}

// TestCoalescedCancellationIsolation cancels one request while its batch is
// mid-flight and checks the cancellation is contained: the canceled waiter
// gets its context error, every batchmate still gets the full, correct
// answer — the batch runs under a context detached from any single request.
func TestCoalescedCancellationIsolation(t *testing.T) {
	srv := newTestServer(t, Config{MaxBatch: 8, MaxWait: 30 * time.Millisecond})
	exact := srv.tier("exact").rows
	soleTier(srv, &slowSearcher{inner: exact, delay: 80 * time.Millisecond, started: make(chan struct{})})
	slow := srv.tiers[0].rows.(*slowSearcher)

	// The leader opens the window first; the cancelable request joins it.
	leaderDone := make(chan batchResult, 1)
	go func() {
		res, err := srv.coal.do(context.Background(), 1, 5)
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		leaderDone <- res
	}()
	time.Sleep(5 * time.Millisecond) // let the leader open the window

	ctx, cancel := context.WithCancel(context.Background())
	joinerDone := make(chan error, 1)
	go func() {
		_, err := srv.coal.do(ctx, 2, 5)
		joinerDone <- err
	}()

	<-slow.started // batch is executing; both requests are in it
	cancel()       // abandon the joiner mid-batch

	if err := <-joinerDone; err != context.Canceled {
		t.Fatalf("canceled joiner: err = %v, want context.Canceled", err)
	}
	res := <-leaderDone
	if res.err != nil {
		t.Fatalf("batchmate poisoned by cancellation: %v", res.err)
	}
	want, err := exact.Search(context.Background(), []int{1}, 5)
	if err != nil {
		t.Fatalf("reference search: %v", err)
	}
	if !reflect.DeepEqual(res.top, want[0]) {
		t.Fatalf("batchmate result %v != direct %v", res.top, want[0])
	}
}

// TestDrainFlushesPendingWindow starts a drain while a coalescing window is
// still open and checks every in-flight request completes normally: drain
// stops new admissions but a pending window executes and fans out before
// the handlers return, so no waiter is stranded.
func TestDrainFlushesPendingWindow(t *testing.T) {
	srv := newTestServer(t, Config{
		MaxInFlight: 16, MaxBatch: 16, MaxWait: 60 * time.Millisecond,
	})
	slowTiers(srv, 20*time.Millisecond)
	h := srv.Handler()

	const n = 4
	codes := make(chan int, n)
	var barrier sync.WaitGroup
	barrier.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			barrier.Done()
			barrier.Wait()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
				fmt.Sprintf("/match/topk?row=%d&k=4", i), nil))
			codes <- rec.Code
		}(i)
	}
	// Wait until the requests are past the gate (a window is open or about
	// to be), then drain mid-window.
	deadline := time.Now().Add(2 * time.Second)
	for srv.InFlight() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	srv.StartDrain()

	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("request %d: status %d during drain, want 200", i, code)
		}
	}
	if srv.InFlight() != 0 {
		t.Fatalf("in-flight %d after drain, want 0", srv.InFlight())
	}
}

// prebakedSearcher returns preallocated results, so any allocation measured
// around it belongs to the coalescing machinery, not the search.
type prebakedSearcher struct {
	res []matrix.TopK
}

func (p *prebakedSearcher) Search(ctx context.Context, rows []int, k int) ([]matrix.TopK, error) {
	return p.res[:len(rows)], nil
}

// TestCoalescerSteadyStateAllocs pins the coalescing overhead at zero heap
// allocations per query in steady state: windows, items, waiters, and
// timers are pooled, so once warm the only allocation left is the per-batch
// detached context, which amortizes across the window. The test drives full
// 8-query windows through a preallocated searcher and requires well under
// one malloc per query.
func TestCoalescerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin only holds on plain builds")
	}
	const workers = 8
	srv := newTestServer(t, Config{MaxBatch: workers, MaxWait: 50 * time.Millisecond})
	pre := &prebakedSearcher{res: make([]matrix.TopK, workers)}
	for i := range pre.res {
		pre.res[i] = matrix.TopK{Values: []float64{1}, Indices: []int{0}}
	}
	soleTier(srv, pre)

	const warmup, rounds = 8, 100
	start := make(chan struct{}, workers)
	var done sync.WaitGroup
	var stop sync.WaitGroup
	stop.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer stop.Done()
			for range start {
				// Distinct rows, same k: each round is one full window.
				if _, err := srv.coal.do(context.Background(), w, 4); err != nil {
					t.Errorf("worker %d: %v", w, err)
				}
				done.Done()
			}
		}(w)
	}
	round := func() {
		done.Add(workers)
		for i := 0; i < workers; i++ {
			start <- struct{}{}
		}
		done.Wait()
	}
	for i := 0; i < warmup; i++ {
		round()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	close(start)
	stop.Wait()

	perQuery := float64(after.Mallocs-before.Mallocs) / float64(rounds*workers)
	t.Logf("coalescer steady state: %.3f mallocs/query over %d full windows", perQuery, rounds)
	if perQuery >= 1 {
		t.Fatalf("coalescing path allocates %.2f objects per query in steady state, want < 1 "+
			"(per-query machinery must be pooled; only the per-batch context may allocate)", perQuery)
	}
	st := srv.Stats()
	if st.Batches < rounds {
		t.Fatalf("expected at least %d batches, got %d", rounds, st.Batches)
	}
}

// TestRowAnswerIndependentOfBatchmates pins the identity the one lookup
// contract — and so the coalescer's invisibility — rests on: on every tier of
// the served snapshot (quantized, IVF and exact; the quantized tier both with
// and without an index) a batch of N rows equals N batches of one, bit for
// bit, at two k.
func TestRowAnswerIndependentOfBatchmates(t *testing.T) {
	ctx := context.Background()
	rows := []int{0, 3, 3, 7, 11, 2, 39, 5}
	for name, clusters := range map[string]int{"indexed": 4, "flat-quant": 0} {
		t.Run(name, func(t *testing.T) {
			srv, err := NewFromSnapshot(quantize(t, testSnapshot(t, 40, 40, 8, clusters)), Config{})
			if err != nil {
				t.Fatalf("NewFromSnapshot: %v", err)
			}
			for _, tr := range srv.tiers {
				for _, k := range []int{1, 5} {
					got, err := tr.rows.Search(ctx, rows, k)
					if err != nil {
						t.Fatalf("%s k=%d: batch: %v", tr.name, k, err)
					}
					for i, row := range rows {
						want, err := tr.rows.Search(ctx, []int{row}, k)
						if err != nil {
							t.Fatalf("%s k=%d: row %d alone: %v", tr.name, k, row, err)
						}
						if !reflect.DeepEqual(got[i], want[0]) {
							t.Fatalf("%s k=%d: row %d: among batchmates %v != alone %v", tr.name, k, row, got[i], want[0])
						}
					}
				}
			}
		})
	}
}
