package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"entmatcher/internal/matrix"
)

// TestConcurrentLookupIdentity fires a concurrent /match/topk storm at one
// server and checks every response body byte for byte against the same
// request sent alone to a fresh server: concurrent lookups share the LRU
// (sized small here, so it evicts under the storm) and the tiers' state, and
// neither may leak into a payload — on a healthy ladder and on one whose index
// tier is down, where every answer must degrade to the same tier and say so
// the same way. Run under -race this also races the cache and the counters.
func TestConcurrentLookupIdentity(t *testing.T) {
	t.Run("healthy", func(t *testing.T) { stormIdentity(t, "ann") })
	t.Run("degraded", func(t *testing.T) {
		stormIdentity(t, "exact", WithPrimarySearcher(&failSearcher{err: errors.New("injected index failure")}))
	})
}

func stormIdentity(t *testing.T, servedBy string, opts ...Option) {
	snap := testSnapshot(t, 40, 40, 8, 4)
	srv, err := NewFromSnapshot(snap, Config{MaxInFlight: 128, CacheSize: 8}, opts...)
	if err != nil {
		t.Fatalf("NewFromSnapshot: %v", err)
	}
	// Pace the tiers like a production corpus so the storm's lookups overlap;
	// the payloads are untouched, so the identity check is unaffected.
	overlap := slowTiers(srv, 2*time.Millisecond)

	const workers = 24
	const rounds = 3
	query := func(w, r int) string {
		// Overlapping rows across workers: some requests hit the cache, some
		// miss it concurrently for the same key, some evict each other.
		return fmt.Sprintf("/match/topk?row=%d&k=%d", (w+r*5)%12, 3+(w%2)*2)
	}
	h := srv.Handler()
	var wg, barrier sync.WaitGroup
	answers := make([][rounds]*httptest.ResponseRecorder, workers)
	barrier.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			barrier.Done()
			barrier.Wait() // all workers release together: real concurrency
			for r := 0; r < rounds; r++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, query(w, r), nil))
				answers[w][r] = rec
			}
		}(w)
	}
	wg.Wait()

	alone := map[string][]byte{}
	for w := 0; w < workers; w++ {
		for r := 0; r < rounds; r++ {
			url, a := query(w, r), answers[w][r]
			if a.Code != http.StatusOK {
				t.Fatalf("%s: status %d (body %s)", url, a.Code, a.Body)
			}
			want, ok := alone[url]
			if !ok {
				fresh, err := NewFromSnapshot(snap, Config{}, opts...)
				if err != nil {
					t.Fatalf("NewFromSnapshot(fresh): %v", err)
				}
				rec := httptest.NewRecorder()
				fresh.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
				want = rec.Body.Bytes()
				if !bytes.Contains(want, []byte(`"served_by":"`+servedBy+`"`)) {
					t.Fatalf("%s alone: not served by %s: %s", url, servedBy, want)
				}
				alone[url] = want
			}
			// Whether the LRU answered is timing; every other byte is payload.
			got := bytes.Replace(a.Body.Bytes(), []byte(`"cached":true,`), nil, 1)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: storm body\n %s\nalone body\n %s", url, got, want)
			}
		}
	}

	st := srv.Stats()
	if st.CacheHits+st.CacheMisses != workers*rounds {
		t.Fatalf("cache hits %d + misses %d != %d requests", st.CacheHits, st.CacheMisses, workers*rounds)
	}
	served := map[string]int64{"quant": st.ServedQuant, "ann": st.ServedANN, "exact": st.ServedExact}
	if served[servedBy] != st.CacheMisses {
		t.Fatalf("tier %s served %d lookups, want one per cache miss (%d)", servedBy, served[servedBy], st.CacheMisses)
	}
	if st.CacheEntries > 8 {
		t.Fatalf("cache holds %d entries past its capacity 8", st.CacheEntries)
	}
	if n := overlap.max.Load(); n < 2 {
		t.Fatalf("the storm never overlapped two lookups (max %d in a tier at once)", n)
	}
	t.Logf("storm: hits=%d misses=%d, up to %d lookups in the tiers at once", st.CacheHits, st.CacheMisses, overlap.max.Load())
}

// overlapGauge counts the lookups inside a server's tiers at once.
type overlapGauge struct{ cur, max atomic.Int64 }

// slowSearcher delays every search, then delegates to the wrapped lookup side.
type slowSearcher struct {
	inner TopKSearcher
	delay time.Duration
	gauge *overlapGauge
}

func (s *slowSearcher) Search(ctx context.Context, row, k int) (matrix.TopK, error) {
	n := s.gauge.cur.Add(1)
	defer s.gauge.cur.Add(-1)
	for {
		m := s.gauge.max.Load()
		if n <= m || s.gauge.max.CompareAndSwap(m, n) {
			break
		}
	}
	time.Sleep(s.delay)
	return s.inner.Search(ctx, row, k)
}

// slowTiers wraps every tier's lookup side in a fixed delay, standing in for
// the scan time of a production-sized corpus so concurrent requests genuinely
// overlap, and returns the gauge the wrappers share.
func slowTiers(srv *Server, delay time.Duration) *overlapGauge {
	g := new(overlapGauge)
	for _, t := range srv.tiers {
		t.rows = &slowSearcher{inner: t.rows, delay: delay, gauge: g}
	}
	return g
}
