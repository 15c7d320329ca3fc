package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"entmatcher"
	"entmatcher/internal/ann"
	"entmatcher/internal/datagen"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
	"entmatcher/internal/snapshot"
)

// testSnapshot builds an in-memory snapshot (with IVF indexes) the way the
// pipeline would: unit-normalized tables, names, trained forward and
// reverse indexes.
func testSnapshot(t *testing.T, srcRows, tgtRows, dim, clusters int) *snapshot.Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	mk := func(rows int) *matrix.Dense {
		m := matrix.New(rows, dim)
		for i := 0; i < rows; i++ {
			row := m.Row(i)
			var s float64
			for j := range row {
				row[j] = rng.NormFloat64()
				s += row[j] * row[j]
			}
			inv := 1 / math.Sqrt(s)
			for j := range row {
				row[j] *= inv
			}
		}
		return m
	}
	src, tgt := mk(srcRows), mk(tgtRows)
	names := func(p string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s/%d", p, i)
		}
		return out
	}
	snap := &snapshot.Snapshot{
		Meta:     snapshot.Meta{Tool: "test", SrcRows: srcRows, TgtRows: tgtRows, Dim: dim},
		SrcTable: src, TgtTable: tgt,
		SrcVocab: names("s", srcRows), TgtVocab: names("t", tgtRows),
	}
	if clusters > 0 {
		fwd, err := ann.Build(context.Background(), tgt, ann.Config{Clusters: clusters, Seed: 1})
		if err != nil {
			t.Fatalf("building forward index: %v", err)
		}
		rev, err := ann.Build(context.Background(), src, ann.Config{Clusters: clusters, Seed: 2})
		if err != nil {
			t.Fatalf("building reverse index: %v", err)
		}
		snap.FwdIndex, snap.RevIndex = fwd.Export(), rev.Export()
		snap.Meta.ANN = &snapshot.ANNMeta{Clusters: clusters, NProbe: clusters, Seed: 1}
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("test snapshot invalid: %v", err)
	}
	return snap
}

// quantize adds SQ8 sections to a test snapshot, the way the pipeline's
// -quant -save-snapshot path would.
func quantize(t *testing.T, snap *snapshot.Snapshot) *snapshot.Snapshot {
	t.Helper()
	ctx := context.Background()
	srcQ, err := quant.Encode(ctx, snap.SrcTable)
	if err != nil {
		t.Fatalf("encoding source table: %v", err)
	}
	tgtQ, err := quant.Encode(ctx, snap.TgtTable)
	if err != nil {
		t.Fatalf("encoding target table: %v", err)
	}
	snap.SrcQuant, snap.TgtQuant = srcQ.Export(), tgtQ.Export()
	snap.Meta.Quant = &snapshot.QuantMeta{RerankFactor: quant.DefaultRerankFactor, Rerank: true}
	if err := snap.Validate(); err != nil {
		t.Fatalf("quantized test snapshot invalid: %v", err)
	}
	return snap
}

func newTestServer(t *testing.T, cfg Config, opts ...Option) *Server {
	t.Helper()
	srv, err := NewFromSnapshot(testSnapshot(t, 40, 40, 8, 4), cfg, opts...)
	if err != nil {
		t.Fatalf("NewFromSnapshot: %v", err)
	}
	return srv
}

func getJSON(t *testing.T, h http.Handler, url string, wantStatus int) map[string]any {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, rec.Code, wantStatus, rec.Body)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("GET %s: invalid JSON %q: %v", url, rec.Body, err)
	}
	return out
}

func TestTopKServedByANNAndAgreesWithExact(t *testing.T) {
	srv := newTestServer(t, Config{})
	h := srv.Handler()
	// nprobe = clusters in the test snapshot, so ann and exact must agree.
	viaANN := getJSON(t, h, "/match/topk?src=s/3&k=5", http.StatusOK)
	if viaANN["served_by"] != "ann" {
		t.Fatalf("served_by = %v, want ann", viaANN["served_by"])
	}
	exact, err := srv.tier("exact").rows.Search(context.Background(), 3, 5)
	if err != nil {
		t.Fatalf("exact search: %v", err)
	}
	results := viaANN["results"].([]any)
	if len(results) != len(exact.Indices) {
		t.Fatalf("ann returned %d results, exact %d", len(results), len(exact.Indices))
	}
	for i, r := range results {
		got := int(r.(map[string]any)["col"].(float64))
		if got != exact.Indices[i] {
			t.Errorf("rank %d: ann col %d, exact col %d", i, got, exact.Indices[i])
		}
	}
}

func TestTopKByRowAndBadQueries(t *testing.T) {
	srv := newTestServer(t, Config{MaxK: 8})
	h := srv.Handler()
	byRow := getJSON(t, h, "/match/topk?row=3&k=2", http.StatusOK)
	if byRow["query"] != "s/3" {
		t.Errorf("row lookup resolved to %v, want s/3", byRow["query"])
	}
	getJSON(t, h, "/match/topk", http.StatusBadRequest)
	getJSON(t, h, "/match/topk?src=nope", http.StatusNotFound)
	getJSON(t, h, "/match/topk?row=999", http.StatusBadRequest)
	getJSON(t, h, "/match/topk?src=s/0&k=0", http.StatusBadRequest)
	getJSON(t, h, "/match/topk?src=s/0&k=9", http.StatusBadRequest) // > MaxK
}

func TestTopKCache(t *testing.T) {
	srv := newTestServer(t, Config{})
	h := srv.Handler()
	first := getJSON(t, h, "/match/topk?src=s/7&k=3", http.StatusOK)
	if c, ok := first["cached"]; ok && c.(bool) {
		t.Fatal("first lookup reported cached")
	}
	second := getJSON(t, h, "/match/topk?src=s/7&k=3", http.StatusOK)
	if second["cached"] != true {
		t.Fatal("second identical lookup not served from cache")
	}
	if srv.cache.len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", srv.cache.len())
	}
}

// failSearcher fails every search — the injected "index subsystem down".
type failSearcher struct{ err error }

func (f *failSearcher) Search(context.Context, int, int) (matrix.TopK, error) {
	return matrix.TopK{}, f.err
}

func TestTopKDegradesToExactAndSurfacesIt(t *testing.T) {
	srv := newTestServer(t, Config{},
		WithPrimarySearcher(&failSearcher{err: errors.New("injected index failure")}))
	resp := getJSON(t, srv.Handler(), "/match/topk?src=s/1&k=3", http.StatusOK)
	if resp["served_by"] != "exact" {
		t.Fatalf("served_by = %v, want exact", resp["served_by"])
	}
	deg := resp["degraded_from"].([]any)
	if len(deg) != 1 || deg[0] != "ann" {
		t.Fatalf("degraded_from = %v, want [ann]", deg)
	}
	if len(resp["results"].([]any)) != 3 {
		t.Fatalf("degraded answer has %d results, want 3", len(resp["results"].([]any)))
	}
}

// panicSearcher panics — the recovery middleware must turn it into a 500.
type panicSearcher struct{}

func (panicSearcher) Search(context.Context, int, int) (matrix.TopK, error) {
	panic("injected searcher panic")
}

func TestPanicBecomes500(t *testing.T) {
	srv := newTestServer(t, Config{}, WithPrimarySearcher(panicSearcher{}))
	resp := getJSON(t, srv.Handler(), "/match/topk?src=s/1&k=3", http.StatusInternalServerError)
	if resp["error"] == nil {
		t.Fatal("500 body carries no error field")
	}
}

// stallSearcher blocks until its request's deadline fires, then reports the
// context error — a hung index shard.
type stallSearcher struct{ entered chan struct{} }

func (s *stallSearcher) Search(ctx context.Context, _, _ int) (matrix.TopK, error) {
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	<-ctx.Done()
	return matrix.TopK{}, ctx.Err()
}

func TestDeadlineReturns504(t *testing.T) {
	srv := newTestServer(t, Config{RequestTimeout: 30 * time.Millisecond},
		WithPrimarySearcher(&stallSearcher{}))
	start := time.Now()
	resp := getJSON(t, srv.Handler(), "/match/topk?src=s/1&k=3", http.StatusGatewayTimeout)
	if resp["error"] == nil {
		t.Fatal("504 body carries no error field")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline response took %v", elapsed)
	}
}

func TestOverloadShedsWith429(t *testing.T) {
	stall := &stallSearcher{entered: make(chan struct{}, 1)}
	srv := newTestServer(t, Config{MaxInFlight: 1, RequestTimeout: 2 * time.Second},
		WithPrimarySearcher(stall))
	h := srv.Handler()

	// Occupy the single admission slot with a stalled request...
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/match/topk?src=s/1&k=3", nil))
	}()
	<-stall.entered

	// ...every further request must be shed immediately, well inside the
	// in-flight request's own deadline.
	start := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/match/topk?src=s/2&k=3", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shedding took %v — the gate queued instead of shedding", elapsed)
	}
	// Health endpoints stay outside the gate: they must answer during
	// overload, or the orchestrator would kill a merely busy server.
	getJSON(t, h, "/healthz", http.StatusOK)
	getJSON(t, h, "/readyz", http.StatusOK)
	// /statsz too, and it must have counted the shed request.
	if st := getJSON(t, h, "/statsz", http.StatusOK); st["gate_rejections"].(float64) < 1 {
		t.Fatalf("statsz gate_rejections = %v, want >= 1", st["gate_rejections"])
	}
	wg.Wait()
	if got := srv.InFlight(); got != 0 {
		t.Fatalf("in-flight count %d after drain, want 0", got)
	}
}

// failTileSource implements TileSource + PartsProducer but fails every
// call — the /align ANN tier's "index subsystem down".
type failTileSource struct {
	inner matrix.TileSource
	err   error
}

func (f *failTileSource) Dims() (int, int) { return f.inner.Dims() }
func (f *failTileSource) StreamTiles(context.Context, ...matrix.TileConsumer) error {
	return f.err
}
func (f *failTileSource) Block(context.Context, []int, []int) (*matrix.Dense, error) {
	return nil, f.err
}
func (f *failTileSource) ProduceParts(context.Context, matrix.GraphRequest) (matrix.GraphParts, error) {
	return matrix.GraphParts{}, f.err
}

func postAlign(t *testing.T, h http.Handler, body string, wantStatus int) map[string]any {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/align", bytes.NewBufferString(body))
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("POST /align %s: status %d, want %d (body %s)", body, rec.Code, wantStatus, rec.Body)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("POST /align: invalid JSON %q: %v", rec.Body, err)
	}
	return out
}

func TestAlignServedByANNTier(t *testing.T) {
	srv := newTestServer(t, Config{})
	resp := postAlign(t, srv.Handler(), `{"matcher":"RInf","cand":8}`, http.StatusOK)
	if resp["matcher"] != "RInf-sparse@ann" {
		t.Fatalf("matcher = %v, want RInf-sparse@ann", resp["matcher"])
	}
	if resp["degraded_from"] != nil {
		t.Fatalf("healthy align degraded: %v", resp["degraded_from"])
	}
	if int(resp["pairs"].(float64)) == 0 {
		t.Fatal("align produced no pairs")
	}
}

func TestAlignDegradesANNToExact(t *testing.T) {
	srv := newTestServer(t, Config{})
	srv2 := newTestServer(t, Config{},
		WithAlignSource(&failTileSource{inner: srv.stream, err: errors.New("injected ann outage")}))
	resp := postAlign(t, srv2.Handler(), `{"matcher":"RInf","cand":8}`, http.StatusOK)
	if resp["matcher"] != "RInf-sparse@exact" {
		t.Fatalf("matcher = %v, want RInf-sparse@exact", resp["matcher"])
	}
	deg, _ := resp["degraded_from"].([]any)
	if len(deg) != 1 || deg[0] != "RInf-sparse@ann" {
		t.Fatalf("degraded_from = %v, want [RInf-sparse@ann]", resp["degraded_from"])
	}
	// The degraded answer must equal the healthy exact answer: same matcher,
	// same candidate graphs, just reached through the ladder.
	healthy := postAlign(t, srv.Handler(), `{"matcher":"RInf","cand":8}`, http.StatusOK)
	if healthy["pairs"] != resp["pairs"] {
		t.Fatalf("degraded run found %v pairs, healthy %v", resp["pairs"], healthy["pairs"])
	}
}

func TestAlignRejectsBadRequests(t *testing.T) {
	srv := newTestServer(t, Config{})
	h := srv.Handler()
	postAlign(t, h, `{"matcher":"nope"}`, http.StatusBadRequest)
	postAlign(t, h, `{bad json`, http.StatusBadRequest)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/align", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /align: status %d, want 405", rec.Code)
	}
}

func TestReadyzFlipsOnDrain(t *testing.T) {
	srv := newTestServer(t, Config{})
	h := srv.Handler()
	if resp := getJSON(t, h, "/readyz", http.StatusOK); resp["status"] != "ready" {
		t.Fatalf("readyz = %v, want ready", resp["status"])
	}
	srv.StartDrain()
	if resp := getJSON(t, h, "/readyz", http.StatusServiceUnavailable); resp["status"] != "draining" {
		t.Fatalf("draining readyz = %v, want draining", resp["status"])
	}
	// Liveness is unaffected: draining is healthy, not dead.
	getJSON(t, h, "/healthz", http.StatusOK)
}

func TestNoIndexServesExactOnly(t *testing.T) {
	snap := testSnapshot(t, 12, 12, 4, 0) // no IVF sections
	srv, err := NewFromSnapshot(snap, Config{})
	if err != nil {
		t.Fatalf("NewFromSnapshot: %v", err)
	}
	resp := getJSON(t, srv.Handler(), "/match/topk?src=s/2&k=3", http.StatusOK)
	if resp["served_by"] != "exact" {
		t.Fatalf("served_by = %v, want exact", resp["served_by"])
	}
	ready := getJSON(t, srv.Handler(), "/readyz", http.StatusOK)
	if ready["index"] != false {
		t.Fatal("readyz reports an index the snapshot does not hold")
	}
}

// newQuantServer builds a server over a quantized copy of the deterministic
// test snapshot (seed-pinned, so float twins over the same geometry compare
// bit for bit).
func newQuantServer(t *testing.T, clusters int) *Server {
	t.Helper()
	srv, err := NewFromSnapshot(quantize(t, testSnapshot(t, 40, 40, 8, clusters)), Config{})
	if err != nil {
		t.Fatalf("NewFromSnapshot(quantized): %v", err)
	}
	return srv
}

func TestTopKServedByQuantBitIdenticalToFloat(t *testing.T) {
	for _, tc := range []struct {
		name     string
		clusters int
	}{{"ivf-slabs", 4}, {"exhaustive-scan", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			qsrv := newQuantServer(t, tc.clusters)
			fsrv, err := NewFromSnapshot(testSnapshot(t, 40, 40, 8, tc.clusters), Config{})
			if err != nil {
				t.Fatalf("NewFromSnapshot(float): %v", err)
			}
			for row := 0; row < 40; row += 7 {
				url := fmt.Sprintf("/match/topk?row=%d&k=5", row)
				viaQ := getJSON(t, qsrv.Handler(), url, http.StatusOK)
				if viaQ["served_by"] != "quant" {
					t.Fatalf("served_by = %v, want quant", viaQ["served_by"])
				}
				viaF := getJSON(t, fsrv.Handler(), url, http.StatusOK)
				// JSON float64 encoding round-trips exactly, so deep equality
				// here is bit-identity of scores and order of columns.
				if !reflect.DeepEqual(viaQ["results"], viaF["results"]) {
					t.Fatalf("row %d: quant tier answered differently:\n quant: %v\n float: %v",
						row, viaQ["results"], viaF["results"])
				}
			}
			ready := getJSON(t, qsrv.Handler(), "/readyz", http.StatusOK)
			if ready["quant"] != true {
				t.Fatal("readyz does not report the quant tier")
			}
		})
	}
}

func TestServerServesQuantFromDiskSnapshot(t *testing.T) {
	snap := quantize(t, testSnapshot(t, 20, 20, 8, 4))
	path := filepath.Join(t.TempDir(), "q.snap")
	if err := snap.Write(path); err != nil {
		t.Fatalf("writing snapshot: %v", err)
	}
	srv, err := New(path, Config{})
	if err != nil {
		t.Fatalf("New from disk: %v", err)
	}
	resp := getJSON(t, srv.Handler(), "/match/topk?row=3&k=4", http.StatusOK)
	if resp["served_by"] != "quant" {
		t.Fatalf("served_by = %v, want quant", resp["served_by"])
	}
}

func TestAlignServedByQuantTier(t *testing.T) {
	qsrv := newQuantServer(t, 4)
	resp := postAlign(t, qsrv.Handler(), `{"matcher":"RInf","cand":8}`, http.StatusOK)
	if resp["matcher"] != "RInf-sparse@quant" {
		t.Fatalf("matcher = %v, want RInf-sparse@quant", resp["matcher"])
	}
	if resp["degraded_from"] != nil {
		t.Fatalf("healthy quant align degraded: %v", resp["degraded_from"])
	}
	// The quant tier's answer must equal the float server's: same matcher,
	// same selections, reached through the quantized scan + exact re-rank.
	fsrv := newTestServer(t, Config{})
	healthy := postAlign(t, fsrv.Handler(), `{"matcher":"RInf","cand":8}`, http.StatusOK)
	if healthy["pairs"] != resp["pairs"] {
		t.Fatalf("quant tier found %v pairs, float tier %v", resp["pairs"], healthy["pairs"])
	}
}

func TestTopKQuantDegradesToANN(t *testing.T) {
	srv := newQuantServer(t, 4)
	if srv.tiers[0].name != "quant" {
		t.Fatalf("quantized server's top tier is %q, want quant", srv.tiers[0].name)
	}
	srv.tiers[0].rows = &failSearcher{err: errors.New("injected quant failure")}
	resp := getJSON(t, srv.Handler(), "/match/topk?src=s/1&k=3", http.StatusOK)
	if resp["served_by"] != "ann" {
		t.Fatalf("served_by = %v, want ann", resp["served_by"])
	}
	deg := resp["degraded_from"].([]any)
	if len(deg) != 1 || deg[0] != "quant" {
		t.Fatalf("degraded_from = %v, want [quant]", deg)
	}
}

// TestLookupProbeCountPinned holds the hazard of putting both endpoints on one
// tier table: on a snapshot saved with the auto probe count (NProbe 0) the
// "ann" and "quant" lookups answer exactly what the index returns at ONE cell
// — what /match/topk has always probed — while the same tiers' graph side,
// which /align ranges over, still resolves the auto geometry. Flips when
// ROADMAP 1(a) moves lookups onto the auto count.
func TestLookupProbeCountPinned(t *testing.T) {
	ctx := context.Background()
	const clusters, k = 32, 5
	auto := ann.AutoNProbe(clusters)
	if auto == 1 {
		t.Fatal("the geometry must resolve to more than one cell, or the pin tells nothing")
	}
	snap := testSnapshot(t, 40, 200, 8, clusters)
	snap.Meta.ANN.NProbe = 0
	srv, err := NewFromSnapshot(quantize(t, snap), Config{})
	if err != nil {
		t.Fatalf("NewFromSnapshot: %v", err)
	}
	ivf, err := ann.FromData(snap.FwdIndex)
	if err != nil {
		t.Fatal(err)
	}
	tgtQ, err := quant.FromData(snap.TgtQuant)
	if err != nil {
		t.Fatal(err)
	}
	if err := ivf.AttachQuant(tgtQ); err != nil {
		t.Fatal(err)
	}

	rows := []int{0, 7, 19, 39}
	queries := snap.SrcTable.SelectRows(rows)
	oneCell := map[string][]matrix.TopK{}
	if oneCell["ann"], err = ivf.Search(ctx, queries, k, 1); err != nil {
		t.Fatal(err)
	}
	if oneCell["quant"], err = ivf.SearchQuant(ctx, queries, k, 1, snap.Meta.Quant.RerankFactor, true); err != nil {
		t.Fatal(err)
	}
	for name, want := range oneCell {
		for i, row := range rows {
			got, err := srv.tier(name).rows.Search(ctx, row, k)
			if err != nil {
				t.Fatalf("%s lookup: %v", name, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s lookup of row %d is not the one-cell search:\n got  %v\n want %v", name, row, got, want[i])
			}
		}
	}

	atAuto, err := ivf.Search(ctx, snap.SrcTable, k, auto)
	if err != nil {
		t.Fatal(err)
	}
	atOne, err := ivf.Search(ctx, snap.SrcTable, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(atAuto, atOne) {
		t.Fatal("one cell and the auto count answer alike on this snapshot; the pin tells nothing")
	}
	want, err := matrix.NewCandGraph(200, atAuto)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.tier("ann").graphs.ProduceCandGraph(ctx, k)
	if err != nil {
		t.Fatalf("ann graphs: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/align's ann graphs are not the index's at the auto probe count (%d cells)", auto)
	}
}

func TestStatszCounters(t *testing.T) {
	srv := newTestServer(t, Config{})
	h := srv.Handler()
	getJSON(t, h, "/match/topk?row=1&k=3", http.StatusOK)         // miss, served by ann
	getJSON(t, h, "/match/topk?row=1&k=3", http.StatusOK)         // cache hit
	postAlign(t, h, `{"matcher":"RInf","cand":8}`, http.StatusOK) // @ann tier
	st := getJSON(t, h, "/statsz", http.StatusOK)
	want := map[string]float64{
		"cache_hits": 1, "cache_misses": 1, "cache_entries": 1,
		"gate_rejections": 0,
		"served_quant":    0, "served_ann": 2, "served_exact": 0,
		"in_flight": 0,
		// Kept for the benchmark harness; every lookup serves one request.
		"batches": 0, "batched_queries": 0, "coalesced_dup": 0,
	}
	for key, v := range want {
		if got := st[key]; got != v {
			t.Errorf("statsz %s = %v, want %v", key, got, v)
		}
	}
	for _, gone := range []string{"served_other", "max_batch_size"} {
		if v, ok := st[gone]; ok {
			t.Errorf("statsz still carries %s = %v", gone, v)
		}
	}
	if st["draining"] != false {
		t.Errorf("statsz draining = %v, want false", st["draining"])
	}
	// The quant tier shows up under served_quant on a quantized server.
	qsrv := newQuantServer(t, 4)
	getJSON(t, qsrv.Handler(), "/match/topk?row=2&k=3", http.StatusOK)
	if qst := getJSON(t, qsrv.Handler(), "/statsz", http.StatusOK); qst["served_quant"] != 1.0 {
		t.Errorf("quantized server statsz served_quant = %v, want 1", qst["served_quant"])
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	srv := newTestServer(t, Config{MaxInFlight: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	var shed, served, other int64
	var mu sync.Mutex
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/match/topk?row=%d&k=3", ts.URL, i%40))
			if err != nil {
				t.Errorf("request: %v", err)
				return
			}
			defer resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				served++
			case http.StatusTooManyRequests:
				shed++
			default:
				other++
			}
		}(i)
	}
	wg.Wait()
	if other != 0 {
		t.Fatalf("%d requests got neither 200 nor 429", other)
	}
	if served == 0 {
		t.Fatal("overloaded server served nothing")
	}
	t.Logf("served %d, shed %d", served, shed)
}

// TestMappedServerMatchesLoaded pins the out-of-core serving mode: a server
// whose embedding tables are memory-mapped from the snapshot file answers
// /match/topk and /align bit-identically to one that loaded the same file
// into the heap, and advertises the mode on /readyz. On builds without mmap
// (the purego leg) NewMapped materializes the tables from the reader it
// opened and must still serve the same bits.
func TestMappedServerMatchesLoaded(t *testing.T) {
	snap := quantize(t, testSnapshot(t, 40, 40, 8, 4))
	path := filepath.Join(t.TempDir(), "tables.snap")
	if err := snap.Write(path); err != nil {
		t.Fatalf("writing snapshot: %v", err)
	}
	loaded, err := New(path, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mapped, err := NewMapped(path, Config{})
	if err != nil {
		t.Fatalf("NewMapped: %v", err)
	}
	if mapped.Mapped() != snapshot.MmapSupported {
		t.Fatalf("Mapped() = %v, MmapSupported = %v", mapped.Mapped(), snapshot.MmapSupported)
	}

	// Whole bodies, not just the result lists: served_by, names, scores and
	// counts must all agree (elapsed_ms is the one field that is a clock).
	lh, mh := loaded.Handler(), mapped.Handler()
	for _, url := range []string{"/match/topk?src=s%2F3&k=5", "/match/topk?row=7&k=3"} {
		want, got := getJSON(t, lh, url, http.StatusOK), getJSON(t, mh, url, http.StatusOK)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: mapped body %v differs from loaded %v", url, got, want)
		}
	}
	const body = `{"matcher":"RInf","cand":8}`
	want, got := postAlign(t, lh, body, http.StatusOK), postAlign(t, mh, body, http.StatusOK)
	delete(want, "elapsed_ms")
	delete(got, "elapsed_ms")
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("mapped /align body %v differs from loaded %v", got, want)
	}

	ready := getJSON(t, mh, "/readyz", http.StatusOK)
	if ready["mmap"] != mapped.Mapped() {
		t.Fatalf("/readyz mmap = %v, want %v", ready["mmap"], mapped.Mapped())
	}
	if err := mapped.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
}

// TestAlignTiersMatchPipelineLoad is the cross-seam pin of the single
// preparation path: for one snapshot saved by the pipeline, every /align tier
// must return exactly the pairs a Pipeline{LoadSnapshot} run of the engine
// that tier stands for returns, for the same matcher and candidate budget.
func TestAlignTiersMatchPipelineLoad(t *testing.T) {
	d, err := datagen.GenerateSplit(datagen.DBP15KZhEn.Scaled(0.01), 0.2, 0.1)
	if err != nil {
		t.Fatalf("generating dataset: %v", err)
	}
	path := filepath.Join(t.TempDir(), "prep.snap")
	annCfg, quantCfg := &entmatcher.ANNConfig{Clusters: 8, NProbe: 4}, &entmatcher.QuantConfig{}
	save := entmatcher.PipelineConfig{CandidateBudget: 16, ANN: annCfg, Quant: quantCfg, SaveSnapshot: path}
	if _, err := entmatcher.NewPipeline(save).Prepare(d); err != nil {
		t.Fatalf("prepare with save: %v", err)
	}
	srv, err := New(path, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tiers := srv.tiers
	for i, engine := range []entmatcher.PipelineConfig{
		{ANN: annCfg, Quant: quantCfg}, // @quant
		{ANN: annCfg},                  // @ann
		{},                             // @exact
	} {
		tier := []string{"quant", "ann", "exact"}[i]
		if len(tiers) != 3 || tiers[i].name != tier {
			t.Fatalf("tier %d of %d is not %s", i, len(tiers), tier)
		}
		engine.CandidateBudget, engine.LoadSnapshot = 16, path
		run, err := entmatcher.NewPipeline(engine).Prepare(d)
		if err != nil {
			t.Fatalf("%s: pipeline load: %v", tier, err)
		}
		srv.tiers = tiers[i:] // the tier under test answers first
		for name, m := range map[string]entmatcher.Matcher{
			"RInf": entmatcher.NewRInfSparse(16),
			"Hun.": entmatcher.NewHungarianSparse(16),
		} {
			want, _, err := run.Match(m)
			if err != nil {
				t.Fatalf("%s %s: pipeline match: %v", tier, name, err)
			}
			resp := postAlign(t, srv.Handler(), fmt.Sprintf(`{"matcher":%q,"cand":16}`, name), http.StatusOK)
			if got := resp["matcher"].(string); !strings.HasSuffix(got, "@"+tier) {
				t.Fatalf("%s %s: answered by %s", tier, name, got)
			}
			matches := resp["matches"].([]any)
			if len(matches) != len(want.Pairs) {
				t.Fatalf("%s %s: /align returned %d pairs, pipeline %d", tier, name, len(matches), len(want.Pairs))
			}
			for j, raw := range matches {
				got, p := raw.(map[string]any), want.Pairs[j]
				if got["source"] != float64(p.Source) || got["target"] != float64(p.Target) || got["score"] != p.Score {
					t.Fatalf("%s %s pair %d: /align %v, pipeline %+v", tier, name, j, got, p)
				}
			}
		}
	}
}
