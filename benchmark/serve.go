package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"entmatcher"
	"entmatcher/internal/core"
	"entmatcher/internal/eval"
	"entmatcher/internal/server"
)

const (
	topK = 10
	// hotRows is the size of the hot set 30% of lookups draw from. With the
	// server's default 1024-entry LRU over a few thousand rows the hit ratio
	// stays near 0.3, so the median lookup is a miss and sits well away from
	// the hit/miss boundary.
	hotRows     = 512
	hotShare    = 0.30
	alignCand   = 32
	alignF1Min  = 0.70
	sampledRows = 256
	// maxRequestSpans caps the request spans one client keeps per traced
	// slice of phase A, which bounds the trace file to a few MiB.
	maxRequestSpans = 1 << 12
)

// alignMatchers are the /align jobs of phase B, cycled in this order.
var alignMatchers = []struct{ key, name string }{
	{"csls", "CSLS"}, {"rinf", "RInf"}, {"hungarian", "Hun."},
}

// topKReply mirrors the fields of the server's /match/topk answer the
// benchmark reads.
type topKReply struct {
	Cached  bool `json:"cached"`
	Results []struct {
		Col   int     `json:"col"`
		Score float64 `json:"score"`
	} `json:"results"`
}

// alignReply mirrors the fields of the server's /align answer the benchmark
// reads.
type alignReply struct {
	Matches []struct {
		Source int `json:"source"`
		Target int `json:"target"`
	} `json:"matches"`
}

// serveHarness is one running server plus the load generator's state.
type serveHarness struct {
	cfg     childConfig
	res     *childResult
	srv     *server.Server
	httpSrv *http.Server
	base    string
	rows    int
	hot     []int
	gold    []core.Pair
	clients []*http.Client
}

// startServer brings the snapshot up behind a loopback listener and waits for
// the first 200 on /readyz.
func startServer(cfg childConfig, res *childResult, nClients int) (*serveHarness, error) {
	srv, err := server.NewMapped(filepath.Join(cfg.Dir, serveSnap), server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := &serveHarness{cfg: cfg, res: res, srv: srv, base: "http://" + ln.Addr().String()}
	h.httpSrv = &http.Server{Handler: srv.Handler()}
	go h.httpSrv.Serve(ln) // returns when stop shuts the server down
	for i := 0; i < nClients; i++ {
		h.clients = append(h.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}})
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := h.clients[0].Get(h.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			h.stop()
			return nil, fmt.Errorf("server not ready after 10s (last error: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
	h.rows, _ = srv.Dims()
	perm := rand.New(rand.NewSource(cfg.Seed)).Perm(h.rows)
	h.hot = perm[:min(hotRows, h.rows)]
	return h, nil
}

// stop shuts the listener down, waits for in-flight requests and releases
// the snapshot mapping.
func (h *serveHarness) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.httpSrv.Shutdown(ctx); err != nil {
		h.httpSrv.Close()
	}
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
	h.srv.Close()
}

// nextRow draws the lookup sequence: hotShare of the rows from the hot set,
// the rest uniform over the task.
func (h *serveHarness) nextRow(rng *rand.Rand) int {
	if rng.Float64() < hotShare {
		return h.hot[rng.Intn(len(h.hot))]
	}
	return rng.Intn(h.rows)
}

// getTopK issues one GET /match/topk and drains the reply. It reports whether
// the server answered 200; into, when non-nil, receives the decoded body.
func (h *serveHarness) getTopK(c *http.Client, row int, into *topKReply) bool {
	resp, err := c.Get(h.base + "/match/topk?row=" + strconv.Itoa(row) + "&k=" + strconv.Itoa(topK))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if into != nil {
		err = json.NewDecoder(resp.Body).Decode(into)
	}
	io.Copy(io.Discard, resp.Body)
	return err == nil && resp.StatusCode == http.StatusOK
}

// postAlign runs one POST /align job and scores the answer against gold.
func (h *serveHarness) postAlign(c *http.Client, matcher string) (f1 float64, ok bool) {
	body, _ := json.Marshal(map[string]any{"matcher": matcher, "cand": alignCand})
	resp, err := c.Post(h.base+"/align", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var reply alignReply
	err = json.NewDecoder(resp.Body).Decode(&reply)
	io.Copy(io.Discard, resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return 0, false
	}
	pred := make([]core.Pair, len(reply.Matches))
	for i, m := range reply.Matches {
		pred[i] = core.Pair{Source: m.Source, Target: m.Target}
	}
	return eval.Score(pred, h.gold).F1, true
}

// loadResult is what one closed-loop lookup phase measured.
type loadResult struct {
	wall      time.Duration
	latencyMS []float64
	attempted int
	failed    int
	spans     []span
}

// topKLoad drives the closed loop: every client sends its next lookup only
// after the previous reply is read, until d has passed.
// With a recorder each request also leaves a span (up to maxRequestSpans per
// client). phase seeds the row sequence so no two phases repeat one.
func (h *serveHarness) topKLoad(d time.Duration, clients []*http.Client, phase int, rec *recorder) loadResult {
	type clientOut struct {
		lat    []float64
		failed int
		spans  []span
	}
	outs := make([]clientOut, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *http.Client) {
			defer wg.Done()
			o := &outs[ci]
			rng := rand.New(rand.NewSource(h.cfg.Seed*1000 + int64(phase)*100 + int64(ci)))
			o.lat = make([]float64, 0, 1<<16)
			if rec != nil {
				o.spans = make([]span, 0, maxRequestSpans)
			}
			for n := 0; ; n++ {
				row := h.nextRow(rng)
				t0 := time.Now()
				ok := h.getTopK(c, row, nil)
				t1 := time.Now()
				if !ok {
					o.failed++
				}
				o.lat = append(o.lat, float64(t1.Sub(t0))/1e6)
				if rec != nil && len(o.spans) < maxRequestSpans {
					o.spans = append(o.spans, span{Name: "server.topk", StartNS: int64(t0.Sub(rec.epoch)),
						EndNS: int64(t1.Sub(rec.epoch)), Run: int32(ci*maxRequestSpans + n)})
				}
				if t1.Sub(start) >= d {
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	out := loadResult{wall: time.Since(start)}
	for _, o := range outs {
		out.latencyMS = append(out.latencyMS, o.lat...)
		out.attempted += len(o.lat)
		out.failed += o.failed
		out.spans = append(out.spans, o.spans...)
	}
	return out
}

// alignResult is the /align jobs of one phase, by matcher key.
type alignResult struct {
	latencyS map[string][]float64
	f1       []float64
}

// alignLoop posts /align jobs one after another, cycling the matchers, until
// d has passed and every matcher has run at least once, or stop (nil: never)
// is closed.
func (h *serveHarness) alignLoop(d time.Duration, c *http.Client, rec *recorder, stop <-chan struct{}) alignResult {
	out := alignResult{latencyS: map[string][]float64{}}
	start := time.Now()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return out
		default:
		}
		if i >= len(alignMatchers) && i%len(alignMatchers) == 0 && time.Since(start) >= d {
			return out
		}
		m := alignMatchers[i%len(alignMatchers)]
		h.res.Attempted++
		var f1 float64
		var ok bool
		dur, _ := rec.time("server.align."+m.key, func() error {
			f1, ok = h.postAlign(c, m.name)
			return nil
		})
		if !ok {
			h.res.failf("POST /align %s failed", m.name)
			continue
		}
		out.latencyS[m.key] = append(out.latencyS[m.key], dur.Seconds())
		out.f1 = append(out.f1, f1)
	}
}

// runServe is the child-side body of serve_mixed.
func runServe(cfg childConfig) *childResult {
	res := newChildResult()
	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	d, err := entmatcher.LoadDataset(cfg.Dir, cfg.Workload)
	if err != nil {
		res.failf("load dataset: %v", err)
		return res
	}
	task, err := eval.OneToOneTask(d)
	if err != nil {
		res.failf("gold task: %v", err)
		return res
	}

	nClients := runtime.GOMAXPROCS(0)
	root := rec.begin("pass")
	var h *serveHarness
	res.Attempted++
	ready, err := rec.time("server.ready", func() error {
		var err error
		h, err = startServer(cfg, res, nClients)
		return err
	})
	if err != nil {
		res.failf("start server: %v", err)
		return res
	}
	defer h.stop()
	h.gold = task.Gold

	// Warm-up: let the LRU fill and the connections open before timing.
	rec.time("warmup", func() error {
		h.topKLoad(cfg.measure()/20, h.clients, 0, nil)
		return nil
	})

	// Phase A: closed-loop point lookups, in slices of about half a second that
	// alternate two loads. With every client at once the cores are saturated:
	// that is the rate. A request keeps two goroutines busy, the caller's and
	// the handler's, so at saturation the tail is the host scheduler's time
	// slice (p99.9 reads 4 ms whatever the server does) and moves with every
	// neighbour of the sandbox; latency is therefore what one caller alone
	// sees. Each slice yields its own rate and percentiles and the run reports
	// the median over the slices of a load, so a burst of interference moves a
	// few slices and not the result. The traced run records request spans in
	// every other pair of slices, which is where its overhead shows.
	shareA, shareB := 0.65, 0.30
	if cfg.Trace {
		shareA, shareB = 0.45, 0.25
	}
	durA := time.Duration(float64(cfg.measure()) * shareA)
	slices := max(4, int(durA/(500*time.Millisecond)))
	var phaseA [2][2][]loadResult // [one caller][traced]
	failedLookups := 0
	idA := rec.begin("phase_a")
	for s := 0; s < slices; s++ {
		one, clients := s%2, h.clients
		if one == 1 {
			clients = h.clients[:1]
		}
		traced, r := 0, (*recorder)(nil)
		if rec != nil && s/2%2 == 1 {
			traced, r = 1, rec
		}
		lr := h.topKLoad(durA/time.Duration(slices), clients, 1+s, r)
		if r != nil {
			rec.add(idA, lr.spans)
		}
		phaseA[one][traced] = append(phaseA[one][traced], lr)
		res.Attempted += lr.attempted
		failedLookups += lr.failed
	}
	rec.end(idA)
	if failedLookups > 0 {
		res.Failed += failedLookups
		res.Failures = append(res.Failures, fmt.Sprintf("%d GET /match/topk requests failed", failedLookups))
	}

	// Phase B: whole-task /align jobs, one at a time.
	idB := rec.begin("phase_b")
	phaseB := h.alignLoop(time.Duration(float64(cfg.measure())*shareB), h.clients[0], rec, nil)
	rec.end(idB)

	// Phase C (traced run only, diagnostic): one client loops /align while
	// the others keep looking rows up — the read-beside-write case.
	var mixedTopK loadResult
	var mixedAlign alignResult
	if cfg.Trace && nClients > 1 {
		idC := rec.begin("phase_c")
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			mixedAlign = h.alignLoop(time.Hour, h.clients[0], nil, stop)
		}()
		mixedTopK = h.topKLoad(time.Duration(float64(cfg.measure())*0.25), h.clients[1:], 20, nil)
		close(stop)
		wg.Wait()
		rec.end(idC)
		res.Attempted += mixedTopK.attempted
		res.Failed += mixedTopK.failed
	}
	rec.end(root)
	stats := h.srv.Stats()

	chk := &checker{res: res}
	probe := checkServe(cfg, chk, h, phaseB)

	if !cfg.Trace {
		serveEndToEnd(res, phaseA[0][0], phaseA[1][0], phaseB)
		return res
	}
	servePerLayer(cfg, res, chk, h, rec, ready, stats, phaseA[0][0], phaseA[1][0], phaseA[1][1], phaseB, mixedTopK, mixedAlign, probe)
	if err := rec.write(cfg.tracePath(), cfg.Workload, cfg.Seed); err != nil {
		res.failf("write trace: %v", err)
	}
	return res
}

// alignLatency is the mean over matchers of each matcher's median job
// latency: the three jobs differ in cost, so a pooled median would sit on
// whichever one happens to be the middle.
func alignLatency(b alignResult) float64 {
	var meds []float64
	for _, m := range alignMatchers {
		if l := b.latencyS[m.key]; len(l) > 0 {
			meds = append(meds, median(l))
		}
	}
	return mean(meds)
}

// overSlices is the median over slices of one statistic of a slice.
func overSlices(slices []loadResult, stat func(loadResult) float64) float64 {
	vals := make([]float64, len(slices))
	for i, s := range slices {
		vals[i] = stat(s)
	}
	return median(vals)
}

func sliceRate(s loadResult) float64 { return float64(s.attempted) / s.wall.Seconds() }
func sliceP50(s loadResult) float64  { return quantile(s.latencyMS, 0.50) }
func sliceP99(s loadResult) float64  { return quantile(s.latencyMS, 0.99) }

// serveEndToEnd turns phases A and B into the end-to-end metrics: the rate
// from phase A's saturated slices, the latencies from its one-caller slices.
// An operation is one GET /match/topk; see README.md for the definitions.
func serveEndToEnd(res *childResult, saturated, oneCaller []loadResult, b alignResult) {
	res.Metrics["align_s"] = alignLatency(b)
	res.Metrics["f1_mean"] = mean(b.f1)
	res.Metrics["op_per_s"] = overSlices(saturated, sliceRate)
	res.Metrics["op_typical_ms"] = overSlices(oneCaller, sliceP50)
	res.Metrics["op_tail_ms"] = overSlices(oneCaller, sliceP99)
}
