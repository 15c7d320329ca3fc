// Package server implements the hardened alignment server behind
// cmd/entserver. It loads one crash-safe snapshot (internal/snapshot) at
// startup and serves entity-alignment queries over HTTP through the existing
// streaming/ANN machinery:
//
//   - GET  /match/topk  — point lookup: top-k target candidates for one
//     source entity, from the best tier the snapshot carries, degrading down
//     the tier table when one fails.
//   - POST /align       — batch job: run a matcher over the whole task
//     through the Fallback ladder over the same tiers (matcher@quant →
//     matcher@ann → matcher@exact).
//   - GET  /healthz     — liveness: the process is up.
//   - GET  /readyz      — readiness: snapshot loaded and not draining.
//   - GET  /statsz      — observability counters: cache hits/misses,
//     admission-gate rejections, per-tier served counts (quant/ann/exact).
//
// Both endpoints range over one tier table (DESIGN.md § 13): a tier is an
// engine producer — SQ8 scans when the snapshot carries SQ8 sections
// (entmatcher -quant -save-snapshot), the float IVF index when it carries
// one, the exhaustive stream always — that answers row lookups for
// /match/topk and candidate graphs for /align. The quant tier ranks with the
// int8 kernel and re-ranks survivors with the exact float64 kernel, so its
// responses carry the same bits the float tiers would; a failing tier falls
// through to the next one on either endpoint.
//
// Robustness contract (see DESIGN.md § 13):
//
//   - Admission gate: at most MaxInFlight requests execute concurrently.
//     Excess load is shed immediately with 429 + Retry-After — the server
//     never queues unboundedly, so overload cannot become an OOM or a
//     latency collapse.
//   - Deadlines: every request runs under RequestTimeout riding the
//     cooperative-cancellation plumbing; a deadline hit returns 504.
//   - Degradation is surfaced, never silent: when a cheaper path answered,
//     the response carries the failed tiers in "degraded_from" (the HTTP
//     analogue of the CLIs' exit code 3; see internal/exitcode).
//   - Panics become 500s: matcher panics are contained by core.SafeMatch
//     and the Fallback ladder, handler panics by the recovery middleware.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"entmatcher/internal/ann"
	"entmatcher/internal/core"
	"entmatcher/internal/engine"
	"entmatcher/internal/matrix"
	"entmatcher/internal/plan"
	"entmatcher/internal/quant"
	"entmatcher/internal/sim"
	"entmatcher/internal/snapshot"
)

// Config tunes the server. Zero values mean the documented defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing /match/topk and /align
	// requests — the admission gate's capacity. Default 16.
	MaxInFlight int
	// RequestTimeout is the per-request deadline. Default 10s.
	RequestTimeout time.Duration
	// CacheSize is the /match/topk LRU capacity in entries. Default 1024.
	CacheSize int
	// MaxK caps the k a /match/topk request may ask for. Default 128.
	MaxK int
	// NProbe overrides the IVF probe count for /match/topk index searches
	// (0 = the snapshot's recorded value, or an auto default).
	NProbe int
	// MaxSnapshotBytes bounds the snapshot file size accepted at load
	// (0 = snapshot.DefaultMaxBytes).
	MaxSnapshotBytes int64
	// MaxBatch bounds how many /match/topk cache misses one coalesced
	// batch may carry. Under concurrent load, misses are collected into a
	// bounded window and served through one register-blocked batch scan
	// per distinct k; identical (row, k) requests are deduplicated
	// singleflight-style. 0 means the default 32; at 1 or less after that
	// defaulting there is no window and every request takes the lone path.
	MaxBatch int
	// MaxWait is how long a batch leader holds its window open for
	// batchmates before executing. Only paid when at least two requests
	// are in flight — a lone request always takes the direct path at zero
	// added latency. Default 500µs.
	MaxWait time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 16
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.MaxK <= 0 {
		c.MaxK = 128
	}
	if c.MaxSnapshotBytes <= 0 {
		c.MaxSnapshotBytes = snapshot.DefaultMaxBytes
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 32
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 500 * time.Microsecond
	}
	return c
}

// TopKSearcher is the one lookup contract: the top-k target columns of each
// listed source row, best first, every row's answer independent of the rows
// it was asked alongside. Every tier's lookup side is one, and it is the seam
// fault-injection tests replace to prove the ladder walk happens.
type TopKSearcher interface {
	Search(ctx context.Context, rows []int, k int) ([]matrix.TopK, error)
}

// searchFunc adapts an engine's row search to the contract.
type searchFunc func(ctx context.Context, rows []int, k int) ([]matrix.TopK, error)

func (f searchFunc) Search(ctx context.Context, rows []int, k int) ([]matrix.TopK, error) {
	return f(ctx, rows, k)
}

// tier is one rung of the ladder both work endpoints walk: an engine producer
// seen as a row searcher (/match/topk) and as a memoized candidate-graph
// source (/align, so a repeated job costs the matcher alone). name — "quant",
// "ann" or "exact" — is the response's served_by, the @suffix of an /align
// matcher and the /statsz key; served counts the lookups and jobs it answered.
type tier struct {
	name   string
	rows   TopKSearcher
	graphs *matrix.GraphMemo
	served atomic.Int64
}

// Option customizes a Server at construction; the With* helpers are the
// fault-injection seams used by the robustness tests. Both replace one side
// of the index ("ann") tier and need a snapshot that carries an index.
type Option func(*Server)

// WithPrimarySearcher replaces the index tier's lookup side. The exact scan
// stays below it, so an injected failing searcher exercises the degradation
// path end to end.
func WithPrimarySearcher(r TopKSearcher) Option {
	return func(srv *Server) { srv.tier("ann").rows = r }
}

// WithAlignSource replaces the index tier's graph side, so a test can make
// /align's index tier fail (or succeed) deterministically.
func WithAlignSource(src matrix.TileSource) Option {
	return func(srv *Server) { srv.tier("ann").graphs = matrix.Memo(src) }
}

// Server is one loaded snapshot plus the HTTP machinery around it. All
// fields are set at construction and immutable afterwards except the
// draining flag, the counters and the cache, all safe for concurrent use.
type Server struct {
	cfg    Config
	snap   *snapshot.Snapshot
	stream *sim.Stream

	// tiers is the degradation ladder, best first; the last is the exact scan.
	tiers     []*tier
	srcByName map[string]int

	// plan is the startup self-configuration: the cost-based planner's
	// decision for the served workload shape, computed from the same
	// calibration the CLIs use. Advisory except for defaultCand; nil when
	// no plan could be chosen for the shape.
	plan        *plan.Plan
	defaultCand int

	cache    *lruCache
	gate     chan struct{}
	coal     *coalescer // nil when request coalescing is disabled
	draining atomic.Bool
	inflight atomic.Int64

	// closer releases the snapshot mapping when the server was built with
	// NewMapped; nil for fully loaded snapshots. mapped reports the mode.
	closer io.Closer
	mapped bool

	// Observability counters behind /statsz and the drain log line.
	cacheHits, cacheMisses                atomic.Int64
	gateRejections                        atomic.Int64
	batches, batchedQueries, coalescedDup atomic.Int64
	maxBatchSeen                          atomic.Int64
}

// tier returns the tier of that name, nil when the snapshot does not carry it.
func (s *Server) tier(name string) *tier {
	for _, t := range s.tiers {
		if t.name == name {
			return t
		}
	}
	return nil
}

// Stats is a point-in-time copy of the server's observability counters,
// served at /statsz and printed in entserver's graceful-drain log line.
// Served* count answered requests by the tier that produced the answer, on
// either endpoint. Every tier is one of the three named ones, so ServedOther
// stays 0; it is kept for the shape of /statsz. Cache hits are counted
// separately (no tier ran).
type Stats struct {
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEntries   int   `json:"cache_entries"`
	GateRejections int64 `json:"gate_rejections"`
	ServedQuant    int64 `json:"served_quant"`
	ServedANN      int64 `json:"served_ann"`
	ServedExact    int64 `json:"served_exact"`
	ServedOther    int64 `json:"served_other"`
	InFlight       int64 `json:"in_flight"`
	Draining       bool  `json:"draining"`
	// Coalescing counters: Batches is executed windows, BatchedQueries the
	// unique (row, k) queries they carried (avg batch size is the ratio),
	// CoalescedDup the extra requests answered by an existing window entry
	// without a scan of their own, MaxBatchSize the largest window executed.
	Batches        int64 `json:"batches"`
	BatchedQueries int64 `json:"batched_queries"`
	CoalescedDup   int64 `json:"coalesced_dup"`
	MaxBatchSize   int64 `json:"max_batch_size"`
	// AlignGraph* are the /align tiers' candidate-graph memo counters, keyed
	// by tier name: producer calls that built a part, calls answered without
	// building, parts derived from a held one (CSLS's k = 1 column statistic
	// off the reverse graph — why the same job costs milliseconds on a float
	// tier and a scan on an SQ8 one), and the bytes the memo holds.
	AlignGraphBuilds  map[string]int64 `json:"align_graph_builds"`
	AlignGraphHits    map[string]int64 `json:"align_graph_hits"`
	AlignGraphDerived map[string]int64 `json:"align_graph_derived"`
	AlignGraphBytes   map[string]int64 `json:"align_graph_bytes"`
	// Plan is the startup self-configuration plan's chosen engine in label
	// form (e.g. "quant+sparse(C=64,f=4)"); empty when the planner could
	// not choose one at startup.
	Plan string `json:"plan,omitempty"`
}

// Stats snapshots the counters. Safe for concurrent use; the fields are read
// independently, so a snapshot taken under load is approximate, not torn.
func (s *Server) Stats() Stats {
	planLabel := ""
	if s.plan != nil {
		planLabel = s.plan.Chosen.Label()
	}
	served, builds, hits, derived, held := map[string]int64{}, map[string]int64{}, map[string]int64{}, map[string]int64{}, map[string]int64{}
	for _, t := range s.tiers {
		st := t.graphs.Stats()
		served[t.name] = t.served.Load()
		builds[t.name], hits[t.name], derived[t.name], held[t.name] = st.Builds, st.Hits, st.Derived, st.Bytes
	}
	return Stats{
		Plan:           planLabel,
		CacheHits:      s.cacheHits.Load(),
		CacheMisses:    s.cacheMisses.Load(),
		CacheEntries:   s.cache.len(),
		GateRejections: s.gateRejections.Load(),
		ServedQuant:    served["quant"],
		ServedANN:      served["ann"],
		ServedExact:    served["exact"],
		InFlight:       s.inflight.Load(),
		Draining:       s.draining.Load(),
		Batches:        s.batches.Load(),
		BatchedQueries: s.batchedQueries.Load(),
		CoalescedDup:   s.coalescedDup.Load(),
		MaxBatchSize:   s.maxBatchSeen.Load(),

		AlignGraphBuilds:  builds,
		AlignGraphHits:    hits,
		AlignGraphDerived: derived,
		AlignGraphBytes:   held,
	}
}

// New loads the snapshot at path and builds a ready-to-serve Server.
func New(path string, cfg Config, opts ...Option) (*Server, error) {
	snap, err := snapshot.LoadLimit(path, cfg.withDefaults().MaxSnapshotBytes)
	if err != nil {
		return nil, err
	}
	return NewFromSnapshot(snap, cfg, opts...)
}

// NewMapped loads the snapshot at path with its embedding tables served from
// a memory mapping of the file instead of heap copies — the kernel pages
// table bytes in on demand and can evict them under pressure, so a snapshot
// far larger than RAM still serves. The vocabularies, indexes and SQ8 codes
// (small next to the tables) load normally. Where the platform or build
// cannot map the tables it materializes them from the reader it already
// verified — same answers, just resident — and Mapped reports which mode
// won. Close the returned server to release the mapping.
func NewMapped(path string, cfg Config, opts ...Option) (*Server, error) {
	r, err := snapshot.OpenReaderLimit(path, cfg.withDefaults().MaxSnapshotBytes)
	if err != nil {
		return nil, err
	}
	snap, err := r.Mapped(true, true)
	if errors.Is(err, snapshot.ErrMmapUnsupported) {
		log.Printf("entserver: mmap unavailable (%v), loading snapshot into memory", err)
		// A materialized snapshot owns its bytes: the file is done with.
		snap, err = r.Materialize()
		if err = errors.Join(err, r.Close()); err != nil {
			return nil, err
		}
		return NewFromSnapshot(snap, cfg, opts...)
	}
	if err != nil {
		return nil, errors.Join(err, r.Close())
	}
	s, err := NewFromSnapshot(snap, cfg, opts...)
	if err != nil {
		return nil, errors.Join(err, r.Close())
	}
	s.closer, s.mapped = r, true
	return s, nil
}

// Mapped reports whether the embedding tables are served from a memory
// mapping of the snapshot file rather than heap copies.
func (s *Server) Mapped() bool { return s.mapped }

// Close releases the snapshot mapping (NewMapped servers); a no-op
// otherwise. Call it only after the HTTP server has shut down — in-flight
// requests read the mapped pages.
func (s *Server) Close() error {
	if s.closer == nil {
		return nil
	}
	c := s.closer
	s.closer = nil
	return c.Close()
}

// NewFromSnapshot builds a Server over an already validated snapshot. The
// tiers are internal/engine producers over one Tables value, so the decoded
// indexes and SQ8 tables are shared between them.
func NewFromSnapshot(snap *snapshot.Snapshot, cfg Config, opts ...Option) (*Server, error) {
	cfg = cfg.withDefaults()
	// Self-configuration: plan the served workload with the same calibration
	// the CLIs use. Best-effort — a planner failure must never keep a valid
	// snapshot from serving. The plan is advisory (logged by cmd/entserver,
	// exposed at /statsz) except for the /align default candidate budget,
	// which adopts the planner's choice for this shape.
	defaultCand := 32
	cal := plan.Defaults()
	p, perr := cal.Choose(plan.Workload{
		SrcRows: snap.SrcTable.Rows(),
		TgtRows: snap.TgtTable.Rows(),
		Dim:     snap.SrcTable.Cols(),
	})
	if perr != nil {
		log.Printf("entserver: planner: %v (serving with static defaults)", perr)
	} else if c := p.Chosen.Knobs.CandidateBudget; c > 0 {
		defaultCand = c
	}
	// Serve every engine the snapshot carries: the description is filled from
	// its metadata — the float index, and the SQ8 slabs above it. The float
	// index/stream tiers stay below the quantized one as the degradation
	// floor, untouched — quantization only adds a side slab to the shared
	// index.
	have := engine.Knobs{CandidateBudget: defaultCand}
	if snap.FwdIndex != nil {
		have.Clusters, have.NProbe = snap.FwdIndex.K, cfg.NProbe
		if have.NProbe <= 0 {
			have.NProbe = snap.Meta.ANN.NProbe
		}
		have.NProbe = max(0, min(have.NProbe, have.Clusters))
	}
	if q := snap.Meta.Quant; snap.SrcQuant != nil && q != nil {
		have.Quant, have.RerankFactor, have.NoRerank = true, q.RerankFactor, !q.Rerank
	}
	tables, err := engine.FromSnapshot(context.Background(), snap, have)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		snap:      snap,
		stream:    tables.Stream,
		srcByName: make(map[string]int, len(snap.SrcVocab)),
		cache:     newLRU(cfg.CacheSize),
		gate:      make(chan struct{}, cfg.MaxInFlight),

		plan:        p,
		defaultCand: defaultCand,
	}
	for i, name := range snap.SrcVocab {
		s.srcByName[name] = i
	}
	// The tier table: one producer per engine the snapshot carries, each
	// answering both endpoints. With an index the quant tier is a second view
	// over the shared indexes with the quantized scan switched on (the float
	// view is unaffected — each dispatches on its own state); without one it
	// scans exhaustively.
	annOnly := have
	annOnly.Quant = false
	for _, d := range []struct {
		name    string
		carried bool
		knobs   engine.Knobs
	}{
		{"quant", have.Quant, have},
		{"ann", have.ANN(), annOnly},
		{"exact", true, engine.Knobs{CandidateBudget: defaultCand}},
	} {
		if !d.carried {
			continue
		}
		prod, err := tables.Producer(d.knobs)
		if err != nil {
			return nil, err
		}
		var rows searchFunc
		switch p := prod.(type) {
		case *ann.Source:
			// Lookups keep the probe count they have always had — the recorded
			// one, and a single cell when the snapshot recorded 0 (auto) —
			// while /align's graphs resolve the auto geometry. Moving lookups
			// onto the auto count changes latency and recall, so it is its own
			// change (ROADMAP 6(a)), pinned by TestLookupProbeCountPinned.
			rows = p.WithNProbe(max(1, have.NProbe)).SearchRows
		case *quant.Source:
			rows = p.SearchRows
		default: // the plain stream
			rows = exhaustive(tables.Stream)
		}
		s.tiers = append(s.tiers, &tier{name: d.name, rows: rows, graphs: matrix.Memo(prod)})
	}
	for _, opt := range opts {
		opt(s)
	}
	if cfg.MaxBatch > 1 {
		s.coal = newCoalescer(s)
	}
	return s, nil
}

// exhaustive is the exact tier's row search: one multi-row Block extraction
// scores every target column for all the rows (cosine rows run three per pass
// through the blocked kernel, bit-identical to one at a time), then each row
// selects its own top-k. It is metric-faithful because it goes through the
// same Block kernel as the batch engines, and BoundedTopK's total order
// (value desc, index asc) makes the selection scan-order-insensitive.
func exhaustive(stream *sim.Stream) searchFunc {
	_, cols := stream.Dims()
	colIDs := make([]int, cols)
	for j := range colIDs {
		colIDs[j] = j
	}
	return func(ctx context.Context, rows []int, k int) ([]matrix.TopK, error) {
		block, err := stream.Block(ctx, rows, colIDs)
		if err != nil {
			return nil, err
		}
		out := make([]matrix.TopK, len(rows))
		for i := range rows {
			sel := matrix.NewBoundedTopK(k)
			for j, v := range block.Row(i) {
				sel.Offer(v, j)
			}
			out[i] = sel.Finalize()
		}
		return out, nil
	}
}

// Dims reports the served task's source×target shape.
func (s *Server) Dims() (rows, cols int) {
	return s.snap.SrcTable.Rows(), s.snap.TgtTable.Rows()
}

// Plan returns the startup self-configuration plan for the served workload,
// or nil when the planner could not choose one. Callers (cmd/entserver)
// log it so operators can compare the snapshot's engine against what the
// planner would pick for this shape today.
func (s *Server) Plan() *plan.Plan { return s.plan }

// StartDrain flips the server to draining: /readyz turns 503 so load
// balancers stop routing here, while in-flight requests run to completion
// (the caller then awaits them via http.Server.Shutdown).
func (s *Server) StartDrain() { s.draining.Store(true) }

// InFlight reports the number of requests currently past the admission gate.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Handler returns the server's HTTP handler: the four endpoints behind the
// recovery middleware, with the gated endpoints behind admission + deadline.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.Handle("/match/topk", s.gated(http.HandlerFunc(s.handleTopK)))
	mux.Handle("/align", s.gated(http.HandlerFunc(s.handleAlign)))
	return s.recovered(mux)
}

// recovered turns handler panics into 500s instead of torn connections.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				log.Printf("entserver: panic serving %s: %v\n%s", r.URL.Path, rec, debug.Stack())
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// gated wraps a work endpoint in the admission gate and per-request
// deadline. The gate is a non-blocking semaphore: when MaxInFlight requests
// are already executing, the request is shed immediately with 429 +
// Retry-After — shedding early and cheaply is what keeps the deadline
// meaningful for the requests that are admitted.
func (s *Server) gated(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.gate <- struct{}{}:
		default:
			s.gateRejections.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "server at capacity, retry later")
			return
		}
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			<-s.gate
		}()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	rows, cols := s.Dims()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ready", "rows": rows, "cols": cols,
		"index": s.snap.FwdIndex != nil,
		"quant": s.tier("quant") != nil,
		"mmap":  s.mapped,
	})
}

// handleStatsz reports the observability counters. Like the health probes it
// stays outside the admission gate: observability must answer during
// overload, which is exactly when the counters are interesting.
func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// topKResponse is one /match/topk answer. DegradedFrom lists the searchers
// that failed before ServedBy answered — the response-level analogue of the
// CLIs' degradation exit code.
type topKResponse struct {
	Query        string      `json:"query"`
	Row          int         `json:"row"`
	K            int         `json:"k"`
	ServedBy     string      `json:"served_by"`
	DegradedFrom []string    `json:"degraded_from,omitempty"`
	Cached       bool        `json:"cached,omitempty"`
	Results      []topKEntry `json:"results"`
}

type topKEntry struct {
	Col   int     `json:"col"`
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	row, name, ok := s.sourceRow(w, r)
	if !ok {
		return
	}
	k := 10
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "k must be a positive integer")
			return
		}
		k = n
	}
	if k > s.cfg.MaxK {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("k %d exceeds the server's limit %d", k, s.cfg.MaxK))
		return
	}
	if cols := s.snap.TgtTable.Rows(); k > cols {
		k = cols
	}

	key := strconv.Itoa(row) + "|" + strconv.Itoa(k)
	if v, ok := s.cache.get(key); ok {
		s.cacheHits.Add(1)
		resp := v.(topKResponse)
		resp.Cached = true
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.cacheMisses.Add(1)

	// Under concurrent load, route the miss through the coalescer: misses
	// arriving within one MaxWait window share one lookup per distinct k, and
	// identical (row, k) requests share one entry. A lone request
	// (inflight <= 1) skips the window — no batchmates can arrive, so it walks
	// the ladder itself, under its own context, at zero added latency.
	var res batchResult
	if s.coal != nil && s.inflight.Load() > 1 {
		var werr error
		if res, werr = s.coal.do(r.Context(), row, k); werr != nil {
			// The request's own deadline fired while waiting on the batch.
			res.err = werr
		}
	} else {
		tops, servedBy, degraded, err := s.lookup(r.Context(), []int{row}, k)
		res = batchResult{servedBy: servedBy, degraded: degraded, err: err}
		if err == nil {
			res.top = tops[0]
		}
	}
	if res.err != nil {
		if errors.Is(res.err, context.DeadlineExceeded) || r.Context().Err() != nil {
			writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
			return
		}
		writeError(w, http.StatusInternalServerError, res.err.Error())
		return
	}
	resp := topKResponse{
		Query: name, Row: row, K: k,
		ServedBy: res.servedBy, DegradedFrom: res.degraded,
		Results: make([]topKEntry, len(res.top.Indices)),
	}
	for i, col := range res.top.Indices {
		resp.Results[i] = topKEntry{Col: col, Name: s.snap.TgtVocab[col], Score: res.top.Values[i]}
	}
	s.cache.add(key, resp)
	writeJSON(w, http.StatusOK, resp)
}

// lookup is the one ladder walk: the tiers in order, best first, until one
// answers every row. A tier failure is logged and degrades to the next tier
// (named in degraded); an expired ctx stops the walk — the deadline, not the
// tier, failed, and degrading further would just time out again slower.
func (s *Server) lookup(ctx context.Context, rows []int, k int) (tops []matrix.TopK, servedBy string, degraded []string, err error) {
	for _, t := range s.tiers {
		if tops, err = t.rows.Search(ctx, rows, k); err == nil {
			t.served.Add(int64(len(rows)))
			return tops, t.name, degraded, nil
		}
		if ctx.Err() != nil {
			return nil, "", degraded, context.DeadlineExceeded
		}
		log.Printf("entserver: tier %s failed for %d rows: %v (degrading)", t.name, len(rows), err)
		degraded = append(degraded, t.name)
	}
	return nil, "", degraded, fmt.Errorf("all searchers failed (%v)", degraded)
}

// sourceRow resolves the query's source entity from ?src=<name> or
// ?row=<index>, writing the HTTP error itself when the lookup fails.
func (s *Server) sourceRow(w http.ResponseWriter, r *http.Request) (int, string, bool) {
	q := r.URL.Query()
	if name := q.Get("src"); name != "" {
		row, ok := s.srcByName[name]
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown source entity %q", name))
			return 0, "", false
		}
		return row, name, true
	}
	if v := q.Get("row"); v != "" {
		row, err := strconv.Atoi(v)
		if err != nil || row < 0 || row >= s.snap.SrcTable.Rows() {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("row must be an integer in [0, %d)", s.snap.SrcTable.Rows()))
			return 0, "", false
		}
		return row, s.snap.SrcVocab[row], true
	}
	writeError(w, http.StatusBadRequest, "missing query parameter: src=<entity name> or row=<index>")
	return 0, "", false
}

// alignRequest is the /align body. Matcher is a name core's matcher table
// resolves on candidate graphs; Cand is the top-C candidate budget for the
// sparse twins; BudgetMS bounds the degradation ladder (0 = the request
// deadline).
type alignRequest struct {
	Matcher   string `json:"matcher"`
	Cand      int    `json:"cand"`
	CSLSK     int    `json:"csls_k"`
	SinkhornL int    `json:"sinkhorn_l"`
	BudgetMS  int    `json:"budget_ms"`
}

type alignResponse struct {
	Matcher      string      `json:"matcher"`
	DegradedFrom []string    `json:"degraded_from,omitempty"`
	Pairs        int         `json:"pairs"`
	Abstained    int         `json:"abstained"`
	ElapsedMS    int64       `json:"elapsed_ms"`
	Matches      []alignPair `json:"matches"`
}

type alignPair struct {
	Source     int     `json:"source"`
	Target     int     `json:"target"`
	SourceName string  `json:"source_name"`
	TargetName string  `json:"target_name"`
	Score      float64 `json:"score"`
}

func (s *Server) handleAlign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a JSON body: {\"matcher\": \"DInf\"}")
		return
	}
	var req alignRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	m, err := s.alignMatcher(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	budget := s.cfg.RequestTimeout
	if req.BudgetMS > 0 {
		budget = time.Duration(req.BudgetMS) * time.Millisecond
	}
	// The degradation ladder: the requested matcher on each tier's graphs,
	// best tier first. The exact tier is the safety net — Fallback runs it
	// under the request deadline only.
	tiers := make([]core.Matcher, len(s.tiers))
	for i, t := range s.tiers {
		tiers[i] = &sourced{m: m, src: t.graphs, suffix: "@" + t.name}
	}
	chain := core.NewFallback(budget, tiers...)

	mctx := &core.Context{Stream: s.stream, Ctx: r.Context()}
	res, err := core.SafeMatch(chain, mctx)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || r.Context().Err() != nil {
			writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Fallback names every tier it degraded past, so their count is the index
	// of the one that answered.
	s.tiers[len(res.DegradedFrom)].served.Add(1)
	resp := alignResponse{
		Matcher:      res.Matcher,
		DegradedFrom: res.DegradedFrom,
		Pairs:        len(res.Pairs),
		Abstained:    len(res.Abstained),
		ElapsedMS:    res.Elapsed.Milliseconds(),
		Matches:      make([]alignPair, len(res.Pairs)),
	}
	for i, p := range res.Pairs {
		resp.Matches[i] = alignPair{
			Source: p.Source, Target: p.Target,
			SourceName: s.snap.SrcVocab[p.Source], TargetName: s.snap.TgtVocab[p.Target],
			Score: p.Score,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// alignMatcher builds the requested matcher: the body core's matcher table
// for candidate graphs resolves the name to (DInf streams).
func (s *Server) alignMatcher(req alignRequest) (core.Matcher, error) {
	p := core.MatcherParams{C: req.Cand, CSLSK: req.CSLSK, SinkhornL: req.SinkhornL}
	if p.C <= 0 {
		// The default budget is self-configured: the startup plan's chosen
		// candidate budget for this workload shape, 32 when no plan exists.
		p.C = s.defaultCand
	}
	p.C = min(p.C, s.snap.TgtTable.Rows())
	if p.CSLSK <= 0 {
		p.CSLSK = 1
	}
	if p.SinkhornL <= 0 {
		p.SinkhornL = core.DefaultSinkhornIterations
	}
	if req.Matcher == "" {
		req.Matcher = "DInf"
	}
	return core.OnSparse.New(req.Matcher, p)
}

// sourced runs a matcher with the match context's tile source swapped, so a
// Fallback ladder can try the same algorithm against different engines
// (index-backed, then exact) and record which one answered.
type sourced struct {
	m      core.Matcher
	src    matrix.TileSource
	suffix string
}

func (t *sourced) Name() string { return t.m.Name() + t.suffix }

func (t *sourced) Match(ctx *core.Context) (*core.Result, error) {
	c := *ctx
	c.Stream = t.src
	res, err := t.m.Match(&c)
	if res != nil {
		res.Matcher = t.Name()
	}
	return res, err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg})
}
