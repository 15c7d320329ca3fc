// Command benchmark is the repository's single performance yardstick: four
// named workloads measured from outside the program by timing calls into each
// package's public functions. BENCHMARK.json at the repository root states
// its contract; README.md here explains the workloads, the metrics and how
// to read a trace.
//
// One invocation measures one workload:
//
//	bash benchmark/run.sh --workload sparse_exact --seed 1 --seconds 24 --trace 0
//
// sets the inputs up (several times; the median is setup_s), re-executes
// itself as a child so that peak_rss_mib belongs to the timed region alone,
// checks the answers after the clock has stopped, and prints every metric by
// name with its unit. The last line of standard output is the result as one
// JSON object. --workload all runs every workload untraced, then traced.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times one run sets its inputs up; setup_s is the
// median, and the child measures on the last one.
const setupReps = 3

// childConfig is what the parent hands the measuring child.
type childConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Scale    string
	// Dir holds the inputs set-up wrote; Out receives trace-<workload>.json.
	Dir, Out string
}

func (c childConfig) measure() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// copyArrayBytes caps each array of the host copy-bandwidth probe: 512 MiB
// at the reference scale, little at the smoke test's.
func (c childConfig) copyArrayBytes() int64 {
	if c.Scale == "ref" {
		return 512 * mib
	}
	return 16 * mib
}

func (c childConfig) tracePath() string {
	return filepath.Join(c.Out, "trace-"+c.Workload+".json")
}

// childResult is what the child reports back on its standard output.
type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func newChildResult() *childResult {
	return &childResult{Metrics: map[string]float64{}}
}

// failf records one failed operation (an error, a non-200, a failed check).
func (r *childResult) failf(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// runChild is the measuring process: the workload's timed region, then its
// answer checks, with the process's own peak RSS read last.
func runChild(cfg childConfig) *childResult {
	var res *childResult
	if cfg.Workload == wlServeMixed {
		res = runServe(cfg)
	} else {
		res = runBatch(cfg)
	}
	if !cfg.Trace {
		res.Metrics["peak_rss_mib"] = peakRSSMiB()
	}
	return res
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kib, _ := strconv.ParseFloat(fields[1], 64)
			return kib / 1024
		}
	}
	return 0
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final line on standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of <out>/results.jsonl, the input of --compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// runOne measures one workload once: set-up (setupReps times), the child, and
// the result assembled from both. inProcess runs the child's body in this
// process instead (the smoke test; peak RSS then includes set-up).
func runOne(ctx context.Context, cfg childConfig, inProcess bool) (*result, error) {
	sc, ok := scales[cfg.Scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q (have ref, tiny)", cfg.Scale)
	}
	found := false
	for _, w := range workloads {
		found = found || w.Name == cfg.Workload
	}
	if !found {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp("", "entbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var setups []float64
	var st setupTimes
	for i := 0; i < setupReps; i++ {
		if cfg.Dir != "" {
			os.RemoveAll(cfg.Dir)
		}
		cfg.Dir = filepath.Join(work, "setup-"+strconv.Itoa(i))
		if st, err = setupWorkload(cfg.Workload, sc, cfg.Seed, cfg.Dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st.total.Seconds())
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	var child *childResult
	if inProcess {
		child = runChild(cfg)
	} else if child, err = spawnChild(ctx, cfg); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// A child that died (panic, kill, bad output) is one failed operation
		// of its workload, not a dropped run.
		child = newChildResult()
		child.Attempted = 1
		child.failf("child: %v", err)
	}

	if cfg.Trace {
		child.Metrics["datagen.generate_s"] = st.generate.Seconds()
		child.Metrics["embed.encode_rrea_s"] = st.encodeRREA.Seconds()
		child.Metrics["embed.encode_names_s"] = st.encodeNames.Seconds()
		child.Metrics["snapshot.bytes"] = float64(st.snapshotBytes)
	} else {
		child.Metrics["setup_s"] = median(setups)
	}
	return assemble(cfg, child), nil
}

// spawnChild re-executes this binary as the measuring child and decodes the
// result it prints. The child's standard error passes through.
func spawnChild(ctx context.Context, cfg childConfig) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "--child", string(arg))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	res := newChildResult()
	if err := json.Unmarshal(out, res); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	return res, nil
}

// assemble turns the child's numbers into the result line: every metric the
// mode calls for, by name, with its unit. A per-layer metric the workload does
// not exercise reads 0; an end-to-end metric that is missing, zero or not
// finite is a failure, because the contract says they never are.
func assemble(cfg childConfig, child *childResult) *result {
	specs := endToEnd
	if cfg.Trace {
		specs = perLayer
	}
	r := &result{Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := child.Metrics[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!cfg.Trace && (!ok || v == 0)) {
			child.failf("metric %s has no valid value (%v)", s.Name, v)
			v = 0
		}
		r.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	r.Attempted, r.Failed = child.Attempted, child.Failed
	if r.Attempted < r.Failed {
		r.Attempted = r.Failed
	}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.Correct = r.Failed == 0
	for _, f := range child.Failures {
		fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", cfg.Workload, f)
	}
	return r
}

// report prints the metrics as a table on standard error, appends the record
// to <out>/results.jsonl, and prints the result line on standard output.
func report(cfg childConfig, r *result) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "# %s seed=%d seconds=%g trace=%v scale=%s gomaxprocs=%d\n",
		cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace, cfg.Scale, runtime.GOMAXPROCS(0))
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-36s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "%-36s %14d of %d\n", "failed", r.Failed, r.Attempted)

	line, err := json.Marshal(record{Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace, result: *r})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(cfg.Out, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	final, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(final))
	return err
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg childConfig
	var trace int
	var child string
	var compare bool
	flag.StringVar(&cfg.Workload, "workload", "all", "workload to run: paper_dense, sparse_exact, sparse_indexed, serve_mixed, or all")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed of the generated inputs, the request sequence and the sampled rows")
	flag.Float64Var(&cfg.Seconds, "seconds", 24, "how long the timed region is repeated for")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	flag.StringVar(&cfg.Scale, "scale", "ref", "input sizes: ref (frozen in BENCHMARK.json) or tiny (smoke test)")
	flag.StringVar(&cfg.Out, "out", filepath.Join(".bench_build", "out"), "directory for trace-<workload>.json and results.jsonl")
	flag.BoolVar(&compare, "compare", false, "compare two results.jsonl files given as arguments and exit non-zero on a regression")
	flag.StringVar(&child, "child", "", "internal: run as the measuring child with this JSON configuration")
	flag.Parse()

	// Go before 1.25 sizes GOMAXPROCS from the host, not the container quota;
	// fix it so the client count and the worker pools repeat.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if child != "" {
		if err := json.Unmarshal([]byte(child), &cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: bad --child configuration:", err)
			return 2
		}
		if err := json.NewEncoder(os.Stdout).Encode(runChild(cfg)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark --compare A/results.jsonl B/results.jsonl")
			return 2
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if cfg.Seconds <= 0 || (trace != 0 && trace != 1) || flag.NArg() != 0 {
		flag.Usage()
		return 2
	}
	cfg.Trace = trace == 1

	// An interrupt cancels the child and still lets the deferred clean-up of
	// the temporary inputs run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runs := []childConfig{cfg}
	if cfg.Workload == "all" {
		runs = nil
		for _, tr := range []bool{false, true} {
			for _, w := range workloads {
				c := cfg
				c.Workload, c.Trace = w.Name, tr
				runs = append(runs, c)
			}
		}
	}
	code := 0
	for _, c := range runs {
		r, err := runOne(ctx, c, false)
		if err == nil {
			err = report(c, r)
		}
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "benchmark: interrupted")
				return 130
			}
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", c.Workload, err)
			return 1
		}
		if !r.Correct {
			code = 1
		}
	}
	return code
}
