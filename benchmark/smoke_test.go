package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON keeps spec.go and BENCHMARK.json in step and
// inside the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end and %d per-layer metrics fall outside the limits (2-8, 1-16, 1-128)",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if len(workloads) != len(b.Workloads) {
		t.Fatalf("spec.go has %d workloads, BENCHMARK.json %d", len(workloads), len(b.Workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		if b.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %+v", i, b.Workloads[i], w)
		}
		unique(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	sameMetrics := func(kind string, spec, file []metricSpec, bounded bool) {
		if len(spec) != len(file) {
			t.Fatalf("%s: spec.go has %d metrics, BENCHMARK.json %d", kind, len(spec), len(file))
		}
		for i, m := range spec {
			if file[i] != m {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, spec.go %+v", kind, i, file[i], m)
			}
			unique(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is not made of at most 16 letters, digits, _ / %% . -", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound > 0) || m.Bound > 0.25 {
				t.Errorf("%s: bound %v (end-to-end metrics need one in (0, 0.25], per-layer metrics none)", m.Name, m.Bound)
			}
		}
	}
	sameMetrics("end_to_end", endToEnd, b.EndToEnd, true)
	sameMetrics("per_layer", perLayer, b.PerLayer, false)
	var setup *metricSpec
	for i := range endToEnd {
		if endToEnd[i].Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("end_to_end needs setup_s in s, lower is better; have %+v", setup)
	}
}

// TestSmokeAllWorkloads runs every workload at the tiny scale, untraced and
// traced, and asserts the output schema: exactly the metrics BENCHMARK.json
// names for the mode, each finite and with its unit, end-to-end metrics never
// zero; every answer check passed and nothing failed; the trace file parses
// and every span's parent exists.
func TestSmokeAllWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			want := b.EndToEnd
			if traced {
				name, want = w.Name+"/traced", b.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := childConfig{Workload: w.Name, Seed: 1, Seconds: 0.3, Trace: traced, Scale: "tiny", Out: t.TempDir()}
				t.Setenv("TMPDIR", t.TempDir())
				r, err := runOne(context.Background(), cfg, true)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d, want a clean run", r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case !traced && got.Value == 0:
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
				}
				if traced {
					checkTraceFile(t, cfg.tracePath())
				}
			})
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for i, s := range tf.Spans {
		if s.Parent < -1 || int(s.Parent) >= len(tf.Spans) || int(s.Parent) == i {
			t.Errorf("span %d (%s): parent %d does not exist", i, s.Name, s.Parent)
		}
		if s.EndNS < s.StartNS || s.Name == "" {
			t.Errorf("span %d (%q) runs from %d to %d", i, s.Name, s.StartNS, s.EndNS)
		}
	}
}

// TestCompare pins the quartile spread against Python's
// statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25] and the three
// verdicts of --compare.
func TestCompare(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	dir := t.TempDir()
	write := func(name string, align []float64) string {
		var sb strings.Builder
		for i, v := range align {
			rec := record{Workload: wlPaperDense, Seed: int64(i), result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"align_s": {Value: v, Unit: "s"}}}}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(line)
			sb.WriteByte('\n')
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.jsonl", []float64{1.00, 1.01, 0.99, 1.00})
	for _, tc := range []struct {
		name      string
		values    []float64
		regressed bool
		verdict   string
	}{
		{"same", []float64{1.01, 1.00, 1.00, 0.99}, false, "ok"},
		{"slower", []float64{1.30, 1.31, 1.29, 1.30}, true, "regressed"},
		{"noisy", []float64{0.5, 1.0, 1.0, 1.5}, false, "unresolved"},
	} {
		var out strings.Builder
		regressed, err := compareFiles(&out, base, write(tc.name+".jsonl", tc.values))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: regressed=%v, output:\n%s\nwant regressed=%v and verdict %q", tc.name, regressed, out.String(), tc.regressed, tc.verdict)
		}
	}
}
