package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"time"

	"entmatcher/internal/ann"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
	"entmatcher/internal/server"
	"entmatcher/internal/sim"
	"entmatcher/internal/snapshot"
)

// serveProbe is what the serve_mixed answer checks measured on the way.
type serveProbe struct {
	// searchUS is the median time of one IVF.SearchQuant call on a sampled
	// row, outside the server: the scan's share of a cache miss.
	searchUS float64
	scanFrac float64
	// recallAt10 compares the served answers with the exact top-10.
	recallAt10 float64
}

// checkServe verifies serve_mixed's answers after the clock has stopped. For
// sampled rows the served results must equal IVF.SearchQuant called directly
// on the index restored from the same snapshot with its recorded nprobe — the
// server adds nothing to and drops nothing from the index's answer — and an
// immediate repeat must come back cached with the same results. Every /align
// answer must clear the F1 floor, and the admission gate must not have shed a
// single request (the load is closed-loop and far under its capacity).
func checkServe(cfg childConfig, chk *checker, h *serveHarness, b alignResult) serveProbe {
	var probe serveProbe
	ctx := context.Background()
	snap, err := snapshot.Load(filepath.Join(cfg.Dir, serveSnap))
	if !chk.ok(err == nil, "reload snapshot: %v", err) {
		return probe
	}
	fwd, err := ann.FromData(snap.FwdIndex)
	if !chk.ok(err == nil, "restore index: %v", err) {
		return probe
	}
	tgtQ, err := quant.FromData(snap.TgtQuant)
	if err == nil {
		err = fwd.AttachQuant(tgtQ)
	}
	if !chk.ok(err == nil, "restore SQ8 table: %v", err) {
		return probe
	}
	factor, rerank := quant.DefaultRerankFactor, true
	if qm := snap.Meta.Quant; qm != nil {
		factor, rerank = qm.RerankFactor, qm.Rerank
	}
	// The recorded nprobe, resolved the way the server resolves it: an auto
	// (zero) value reaches the index as is, and the index probes one cell.
	nprobe := min(snap.Meta.ANN.NProbe, fwd.Clusters())
	probe.scanFrac = float64(max(1, nprobe)) / float64(fwd.Clusters())

	exact, err := sim.NewStreamPrepared(snap.SrcTable, snap.TgtTable, sim.Metric(snap.Meta.Metric))
	if !chk.ok(err == nil, "exact stream: %v", err) {
		return probe
	}
	cols := make([]int, snap.TgtTable.Rows())
	for j := range cols {
		cols[j] = j
	}

	rows := rand.New(rand.NewSource(cfg.Seed + 7)).Perm(h.rows)
	rows = rows[:min(sampledRows, len(rows))]
	var searchUS []float64
	matched, cachedOK, hits, wanted := 0, 0, 0, 0
	for _, row := range rows {
		var first, second topKReply
		if !h.getTopK(h.clients[0], row, &first) || !h.getTopK(h.clients[0], row, &second) {
			continue
		}
		q, err := matrix.NewFromData(1, snap.SrcTable.Cols(), snap.SrcTable.Row(row))
		if err != nil {
			continue
		}
		t0 := time.Now()
		direct, err := fwd.SearchQuant(ctx, q, topK, nprobe, factor, rerank)
		searchUS = append(searchUS, float64(time.Since(t0))/1e3)
		if err != nil {
			continue
		}
		if sameTopK(first, direct[0]) {
			matched++
		}
		if second.Cached && sameReplies(first, second) {
			cachedOK++
		}
		block, err := exact.Block(ctx, []int{row}, cols)
		if err != nil {
			continue
		}
		sel := matrix.NewBoundedTopK(topK)
		for j, v := range block.Row(0) {
			sel.Offer(v, j)
		}
		want := map[int]bool{}
		for _, j := range sel.Finalize().Indices {
			want[j] = true
		}
		wanted += len(want)
		for _, e := range first.Results {
			if want[e.Col] {
				hits++
			}
		}
	}
	chk.res.Attempted += 2 * len(rows)
	chk.ok(matched == len(rows), "served top-%d equals IVF.SearchQuant on %d of %d sampled rows", topK, matched, len(rows))
	chk.ok(cachedOK == len(rows), "immediate repeat cached and identical on %d of %d sampled rows", cachedOK, len(rows))
	for _, f1 := range b.f1 {
		chk.ok(f1 >= alignF1Min, "/align F1 %.3f under floor %.2f", f1, alignF1Min)
	}
	chk.ok(h.srv.Stats().GateRejections == 0, "admission gate rejected %d requests", h.srv.Stats().GateRejections)
	probe.searchUS = median(searchUS)
	if wanted > 0 {
		probe.recallAt10 = float64(hits) / float64(wanted)
	}
	return probe
}

func sameTopK(r topKReply, t matrix.TopK) bool {
	if len(r.Results) != len(t.Indices) {
		return false
	}
	for i, e := range r.Results {
		if e.Col != t.Indices[i] || e.Score != t.Values[i] {
			return false
		}
	}
	return true
}

func sameReplies(a, b topKReply) bool {
	if len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			return false
		}
	}
	return true
}

// handlerProbe times Handler().ServeHTTP into a recorder, no socket, with one
// goroutine: the handler's own cost of a cache miss and of a cache hit.
func handlerProbe(h *serveHarness, seed int64) (missUS, hitUS float64) {
	handler := h.srv.Handler()
	serve := func(row int) (time.Duration, bool) {
		req := httptest.NewRequest(http.MethodGet, "/match/topk?row="+strconv.Itoa(row)+"&k="+strconv.Itoa(topK), nil)
		rr := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rr, req)
		d := time.Since(t0)
		var reply topKReply
		json.Unmarshal(rr.Body.Bytes(), &reply) // a failed decode reads as a miss
		return d, reply.Cached
	}
	var miss, hit []float64
	rows := rand.New(rand.NewSource(seed + 11)).Perm(h.rows)
	for _, row := range rows[:min(2*sampledRows, len(rows))] {
		for rep := 0; rep < 2; rep++ {
			d, cached := serve(row)
			if cached {
				hit = append(hit, float64(d)/1e3)
			} else {
				miss = append(miss, float64(d)/1e3)
			}
		}
	}
	return median(miss), median(hit)
}

// servePerLayer turns serve_mixed's traced run into the per-layer metrics.
func servePerLayer(cfg childConfig, res *childResult, chk *checker, h *serveHarness, rec *recorder,
	ready time.Duration, stats server.Stats, saturated, plain, traced []loadResult, b alignResult,
	mixedTopK loadResult, mixedAlign alignResult, probe serveProbe) {
	m := res.Metrics
	m["server.ready_s"] = ready.Seconds()
	m["server.handler_miss_us"], m["server.handler_hit_us"] = handlerProbe(h, cfg.Seed)
	m["server.http_overhead_us"] = overSlices(plain, sliceP50)*1e3 - m["server.handler_miss_us"]
	if n := stats.CacheHits + stats.CacheMisses; n > 0 {
		m["server.cache_hit_ratio"] = float64(stats.CacheHits) / float64(n)
	}
	if stats.Batches > 0 {
		m["server.mean_batch"] = float64(stats.BatchedQueries) / float64(stats.Batches)
	}
	m["server.coalesced_dup"] = float64(stats.CoalescedDup)
	m["server.gate_rejections"] = float64(stats.GateRejections)
	m["server.served_quant"] = float64(stats.ServedQuant)
	m["server.served_ann"] = float64(stats.ServedANN)
	m["server.served_exact"] = float64(stats.ServedExact)
	m["server.recall_at_10"] = probe.recallAt10
	for _, am := range alignMatchers {
		m["server.align_job_s."+am.key] = median(b.latencyS[am.key])
	}
	m["server.loaded_topk_p50_ms"] = overSlices(saturated, sliceP50)
	m["server.loaded_topk_p99_ms"] = overSlices(saturated, sliceP99)
	m["server.mixed_topk_p50_ms"] = quantile(mixedTopK.latencyMS, 0.5)
	m["server.mixed_topk_p99_ms"] = quantile(mixedTopK.latencyMS, 0.99)
	m["server.mixed_align_p50_s"] = alignLatency(mixedAlign)
	m["ann.search_us"] = probe.searchUS
	m["ann.scan_frac"] = probe.scanFrac

	snapshotProbes(m, chk, filepath.Join(cfg.Dir, serveSnap))
	kernelProbes(m)
	hostProbes(m, cfg.copyArrayBytes())

	m["trace.coverage_pct"] = rec.stats().coveragePct("pass")
	if u := overSlices(plain, sliceP50); u > 0 {
		m["trace.overhead_pct"] = 100 * (overSlices(traced, sliceP50)/u - 1)
	}
	if cfg.Scale == "ref" {
		chk.ok(m["trace.coverage_pct"] >= 95, "trace covers %.1f%% of the timed region, want >= 95%%", m["trace.coverage_pct"])
	}
}
