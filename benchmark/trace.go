package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Parent is the index
// of the enclosing span in the same recorder (-1 for a root); Run identifies
// the pass (or the request) the span belongs to.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Run     int32  `json:"run_id"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in a preallocated slice and writes them out when the
// benchmark ends. A nil recorder records nothing, which is how the untraced
// pass runs the same harness code without spans. Nesting follows call order:
// begin makes the new span a child of the innermost open one.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	cur   int32
	run   int32
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16), cur: -1}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// setRun tags the spans that follow with a pass (or request) identifier.
func (r *recorder) setRun(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.run = int32(id)
	r.mu.Unlock()
}

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, StartNS: r.now(), Parent: r.cur, Run: r.run})
	r.cur = id
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].EndNS = r.now()
	r.cur = r.spans[id].Parent
	r.mu.Unlock()
}

// time runs fn inside a span and returns its wall time, measured whether or
// not a recorder is present.
func (r *recorder) time(name string, fn func() error) (time.Duration, error) {
	id := r.begin(name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.end(id)
	return d, err
}

// add appends already-closed spans recorded elsewhere (the per-client request
// buffers of serve_mixed) under the given parent.
func (r *recorder) add(parent int32, spans []span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, s := range spans {
		s.Parent = parent
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// traceFile is the layout of <out>/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (r *recorder) write(path, workload string, seed int64) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceStats answers the per-layer questions from a finished recording.
type traceStats struct {
	spans    []span
	children [][]int32
}

func (r *recorder) stats() *traceStats {
	ts := &traceStats{spans: r.spans, children: make([][]int32, len(r.spans))}
	for i, s := range r.spans {
		if s.Parent >= 0 {
			ts.children[s.Parent] = append(ts.children[s.Parent], int32(i))
		}
	}
	return ts
}

// self is a span's duration minus the part its direct children cover.
func (ts *traceStats) self(i int32) time.Duration {
	d := ts.spans[i].dur()
	for _, c := range ts.children[i] {
		d -= ts.spans[c].dur()
	}
	return d
}

// perRun sums value(span) over the spans accepted by match, grouped by run id,
// and returns the median of the per-run sums in seconds (0 with no match).
func (ts *traceStats) perRun(match func(name string) bool, value func(i int32) time.Duration) float64 {
	sums := map[int32]time.Duration{}
	for i, s := range ts.spans {
		if match(s.Name) {
			sums[s.Run] += value(int32(i))
		}
	}
	if len(sums) == 0 {
		return 0
	}
	vals := make([]float64, 0, len(sums))
	for _, d := range sums {
		vals = append(vals, d.Seconds())
	}
	return median(vals)
}

// total is the per-run median of the summed durations of spans named name.
func (ts *traceStats) total(name string) float64 {
	return ts.perRun(func(n string) bool { return n == name }, func(i int32) time.Duration { return ts.spans[i].dur() })
}

// selfTime is the per-run median of the summed self times of spans named name.
func (ts *traceStats) selfTime(name string) float64 {
	return ts.perRun(func(n string) bool { return n == name }, ts.self)
}

// coveragePct is the share of each root span's wall its direct children
// account for, as the median over roots named root, in percent.
func (ts *traceStats) coveragePct(root string) float64 {
	var vals []float64
	for i, s := range ts.spans {
		if s.Name != root || s.dur() <= 0 {
			continue
		}
		covered := s.dur() - ts.self(int32(i))
		vals = append(vals, 100*covered.Seconds()/s.dur().Seconds())
	}
	if len(vals) == 0 {
		return 0
	}
	return median(vals)
}

func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the q-quantile of v (nearest rank on a sorted copy).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
