package ann

import (
	"context"
	"fmt"
	"sync"

	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
)

// Source wraps a streaming tile source (the similarity stream) and
// implements matrix.CandGraphProducer on top of lazily built IVF indexes, so
// the candidate-graph builders — and through them every sparse matcher —
// transparently switch from the exhaustive O(rows·cols·d) tile pass to
// sub-quadratic approximate retrieval. It still implements
// matrix.TileSource by delegation, so consumers that genuinely need tiles
// or blocks (Sinkhorn's mini-batches, degradation fallbacks) keep working;
// only candidate-graph construction is intercepted.
//
// The forward index is built over the target table and queried by source
// rows; the reverse index (built on demand for reverse graphs and CSLS
// column means) is the mirror image. Indexes build lazily under a mutex and
// are shared across WithNProbe views, so an nprobe sweep trains once.
//
// Deliberately NOT implemented: matrix.ColPadder. Padding a Source for the
// unmatchable setting therefore goes through the generic wrapper, which
// hides the producer interface — dummy-column runs fall back to the exact
// streaming build rather than approximating around virtual columns.
type Source struct {
	inner          matrix.TileSource
	srcTab, tgtTab *matrix.Dense
	cfg            Config
	state          *sourceState
}

// sourceState holds the lazily built indexes and the optional quantization
// setup, shared by WithNProbe views.
type sourceState struct {
	mu       sync.Mutex
	fwd, rev *IVF

	// SQ8 scan configuration (EnableQuant): when qOn, slab scans run on the
	// quantized side tables with float64 re-rank (unless !qRerank). srcQ
	// attaches to the reverse index (corpus = source table), tgtQ to the
	// forward one.
	qOn        bool
	srcQ, tgtQ *quant.Table
	qFactor    int
	qRerank    bool
}

// NewSource validates shapes and returns a producer over the prepared
// embedding tables. inner must cover exactly srcTab.Rows()×tgtTab.Rows()
// scores (no virtual dummy columns), and the tables must be the *prepared*
// rows the stream scores with — for cosine, the row-normalized copies
// exposed by sim.Stream.PreparedTables — so index scores carry the streamed
// bits. Index construction is deferred to the first candidate-graph request.
func NewSource(inner matrix.TileSource, srcTab, tgtTab *matrix.Dense, cfg Config) (*Source, error) {
	if inner == nil {
		return nil, fmt.Errorf("ann: nil tile source")
	}
	if srcTab == nil || tgtTab == nil {
		return nil, fmt.Errorf("ann: nil embedding table")
	}
	if srcTab.Cols() != tgtTab.Cols() {
		return nil, fmt.Errorf("ann: table dims differ: %d vs %d", srcTab.Cols(), tgtTab.Cols())
	}
	rows, cols := inner.Dims()
	if rows != srcTab.Rows() || cols != tgtTab.Rows() {
		return nil, fmt.Errorf("ann: tile source covers %d×%d but tables are %d×%d",
			rows, cols, srcTab.Rows(), tgtTab.Rows())
	}
	if cfg.Clusters < 0 || cfg.NProbe < 0 || cfg.SampleSize < 0 || cfg.Iters < 0 {
		return nil, fmt.Errorf("ann: negative config field: %+v", cfg)
	}
	if cfg.Clusters > 0 && cfg.NProbe > cfg.Clusters {
		return nil, fmt.Errorf("ann: nprobe %d exceeds clusters %d", cfg.NProbe, cfg.Clusters)
	}
	return &Source{inner: inner, srcTab: srcTab, tgtTab: tgtTab, cfg: cfg, state: &sourceState{}}, nil
}

// Config returns the source's configuration as given (auto fields
// unresolved).
func (s *Source) Config() Config { return s.cfg }

// WithNProbe returns a view of the source with a different query-time nprobe
// (np <= 0 restores the auto default). The underlying indexes are shared, so
// sweeping nprobe across views trains the quantizer once.
func (s *Source) WithNProbe(np int) *Source {
	out := *s
	if np < 0 {
		np = 0
	}
	out.cfg.NProbe = np
	return &out
}

// Dims implements matrix.TileSource by delegation.
func (s *Source) Dims() (rows, cols int) { return s.inner.Dims() }

// StreamTiles implements matrix.TileSource by delegation: consumers that
// need the full score stream still get the exact tiles.
func (s *Source) StreamTiles(ctx context.Context, consumers ...matrix.TileConsumer) error {
	return s.inner.StreamTiles(ctx, consumers...)
}

// Block delegates mini-batch extraction to the inner source: blocked
// matchers get exact on-demand scores regardless of the index.
func (s *Source) Block(ctx context.Context, rowIDs, colIDs []int) (*matrix.Dense, error) {
	return s.inner.Block(ctx, rowIDs, colIDs)
}

// BuildIndexes eagerly trains the forward index (and the reverse one when
// reverse is set) instead of waiting for the first graph request — callers
// that want to time or amortize construction (the bench sweep) use this.
func (s *Source) BuildIndexes(ctx context.Context, reverse bool) error {
	if _, err := s.fwdIndex(ctx); err != nil {
		return err
	}
	if reverse {
		if _, err := s.revIndex(ctx); err != nil {
			return err
		}
	}
	return nil
}

// ForwardIndex returns the index over the target table, building it if
// needed — the hook benchmarks use to read resolved parameters (cluster
// count, footprint) and to time training separately from queries.
func (s *Source) ForwardIndex(ctx context.Context) (*IVF, error) {
	return s.fwdIndex(ctx)
}

// EnableQuant installs SQ8 side tables for both scan directions: srcQ must
// encode the prepared source table, tgtQ the prepared target table. After
// this call every candidate-graph request scans the quantized slabs and
// re-ranks against the float slabs (factor <= 0 selects
// quant.DefaultRerankFactor); rerank=false switches to quantized-only
// scoring, the documented approximation escape hatch. Indexes already built
// get their slabs attached now; lazily built ones attach at build time.
// Call before creating WithNProbe views is not required — the configuration
// lives in the shared state.
func (s *Source) EnableQuant(srcQ, tgtQ *quant.Table, factor int, rerank bool) error {
	if srcQ == nil || tgtQ == nil {
		return fmt.Errorf("ann: nil quantized table")
	}
	if srcQ.Rows() != s.srcTab.Rows() || srcQ.Dim() != s.srcTab.Cols() {
		return fmt.Errorf("ann: source codes cover %d×%d but table is %d×%d",
			srcQ.Rows(), srcQ.Dim(), s.srcTab.Rows(), s.srcTab.Cols())
	}
	if tgtQ.Rows() != s.tgtTab.Rows() || tgtQ.Dim() != s.tgtTab.Cols() {
		return fmt.Errorf("ann: target codes cover %d×%d but table is %d×%d",
			tgtQ.Rows(), tgtQ.Dim(), s.tgtTab.Rows(), s.tgtTab.Cols())
	}
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	if s.state.fwd != nil {
		if err := s.state.fwd.AttachQuant(tgtQ); err != nil {
			return err
		}
	}
	if s.state.rev != nil {
		if err := s.state.rev.AttachQuant(srcQ); err != nil {
			return err
		}
	}
	s.state.qOn = true
	s.state.srcQ, s.state.tgtQ = srcQ, tgtQ
	s.state.qFactor, s.state.qRerank = factor, rerank
	return nil
}

// quantCfg snapshots the quantization switch for a query.
func (s *Source) quantCfg() (on bool, factor int, rerank bool) {
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	return s.state.qOn, s.state.qFactor, s.state.qRerank
}

// search runs one query table against the index that get returns (building
// it on first use), dispatching to the quantized scan when enabled.
func (s *Source) search(ctx context.Context, get func(context.Context) (*IVF, error), queries *matrix.Dense, c int) ([]matrix.TopK, error) {
	ivf, err := get(ctx)
	if err != nil {
		return nil, err
	}
	np := s.nprobeFor(ivf)
	if on, factor, rerank := s.quantCfg(); on {
		return ivf.SearchQuant(ctx, queries, c, np, factor, rerank)
	}
	return ivf.Search(ctx, queries, c, np)
}

// SearchRows answers forward point queries — the top-k target columns of each
// listed source row, best first — through the search the forward graph is
// built with: the same index, this view's probe count, float or SQ8 by the
// source's own switch. A row's answer is therefore the bits that row of
// ProduceParts' forward graph carries at the same budget, whatever rows it
// was asked alongside. An out-of-range row is matrix.ErrSlab.
//
// A single row is queried in place — a one-row view of the table, which the
// scans only read — so a server's lone lookup does not pay a row copy per
// request; several rows are gathered into one query table.
func (s *Source) SearchRows(ctx context.Context, rows []int, k int) ([]matrix.TopK, error) {
	var queries *matrix.Dense
	var err error
	if len(rows) == 1 && rows[0] >= 0 && rows[0] < s.srcTab.Rows() {
		queries, err = matrix.NewFromData(1, s.srcTab.Cols(), s.srcTab.Row(rows[0]))
	} else {
		queries, err = matrix.GatherRows(s.srcTab, rows)
	}
	if err != nil {
		return nil, err
	}
	return s.search(ctx, s.fwdIndex, queries, k)
}

// fwdIndex returns the index over the target table, building it on first
// use. A failed build (cancellation mid-training) is not cached, so a later
// request retries.
func (s *Source) fwdIndex(ctx context.Context) (*IVF, error) {
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	if s.state.fwd == nil {
		ivf, err := Build(ctx, s.tgtTab, s.cfg)
		if err != nil {
			return nil, err
		}
		if s.state.qOn {
			if err := ivf.AttachQuant(s.state.tgtQ); err != nil {
				return nil, err
			}
		}
		s.state.fwd = ivf
	}
	return s.state.fwd, nil
}

// revIndex returns the index over the source table. Its seed is offset from
// the forward one so the two quantizers draw independent samples while
// staying deterministic per Config.
func (s *Source) revIndex(ctx context.Context) (*IVF, error) {
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	if s.state.rev == nil {
		cfg := s.cfg
		cfg.Seed++
		ivf, err := Build(ctx, s.srcTab, cfg)
		if err != nil {
			return nil, err
		}
		if s.state.qOn {
			if err := ivf.AttachQuant(s.state.srcQ); err != nil {
				return nil, err
			}
		}
		s.state.rev = ivf
	}
	return s.state.rev, nil
}

// nprobeFor resolves the query-time probe count against a built index:
// the configured value if set, the auto default otherwise; Search clamps to
// [1, Clusters].
func (s *Source) nprobeFor(ivf *IVF) int {
	if s.cfg.NProbe > 0 {
		return s.cfg.NProbe
	}
	return Config{Clusters: ivf.k}.withDefaults(ivf.n).NProbe
}

var _ matrix.RevHeadProducer = (*Source)(nil)

// RevHeadIsColBest implements matrix.RevHeadProducer. The float search scores
// the cells nprobe selects whatever the budget, so a reverse row's head is
// the column's KCol = 1 selection; with SQ8 on, the re-rank pool grows with
// the budget and a wider search can surface a better head.
func (s *Source) RevHeadIsColBest() bool {
	on, _, _ := s.quantCfg()
	return !on
}

// ProduceParts implements matrix.PartsProducer: each requested part comes
// from its own index search and nothing else is derived. The forward graph
// queries the index over the target table with the source rows; the reverse
// graph and the column statistic query the mirror index over the source
// table with the target rows.
//
// The column statistic (CSLS's φ_t: per-target mean of its KCol best scores)
// is an estimate: at partial nprobe a column that surfaces fewer than KCol
// neighbors is averaged over what was found (and 0 with none, matching the
// dense convention for empty heaps). At full coverage the selected scores
// equal the exact statistic's; the sum runs in descending-score order rather
// than the dense path's heap-array order, so means can differ in the last
// ulps (KCol = 1 is exact).
func (s *Source) ProduceParts(ctx context.Context, req matrix.GraphRequest) (matrix.GraphParts, error) {
	return matrix.SearchedParts(req, s.srcTab.Rows(), s.tgtTab.Rows(),
		func(c int) ([]matrix.TopK, error) { return s.search(ctx, s.fwdIndex, s.srcTab, c) },
		func(c int) ([]matrix.TopK, error) { return s.search(ctx, s.revIndex, s.tgtTab, c) })
}

// ProduceCandGraph implements matrix.CandGraphProducer: the forward
// candidate graph from the index instead of the exhaustive pass.
func (s *Source) ProduceCandGraph(ctx context.Context, c int) (*matrix.CandGraph, error) {
	return matrix.PartsCandGraph(ctx, s, c)
}

// ProduceCandGraphs implements matrix.CandGraphProducer; the reverse graph
// comes from the mirror index over the source table.
func (s *Source) ProduceCandGraphs(ctx context.Context, c, cRev int) (fwd, rev *matrix.CandGraph, err error) {
	return matrix.PartsCandGraphs(ctx, s, c, cRev)
}

// ProduceCandGraphWithColMeans implements matrix.CandGraphProducer; see
// ProduceParts for how the column statistic is estimated.
func (s *Source) ProduceCandGraphWithColMeans(ctx context.Context, c, kCol int) (*matrix.CandGraph, []float64, error) {
	return matrix.PartsCandGraphWithColMeans(ctx, s, c, kCol)
}
