package entmatcher

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"entmatcher/internal/ann"
	"entmatcher/internal/datagen"
	"entmatcher/internal/engine"
	"entmatcher/internal/matrix"
	"entmatcher/internal/sim"
	"entmatcher/internal/snapshot"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.txt from this build's answers")

const digestFile = "testdata/digests.txt"

// dotArithmetic names the float64 dot product this build scores with:
// "fma" where matrix.Dot4 runs the AVX2+FMA kernel (every tile tier shares
// its arithmetic), "go" where it runs the portable unrolled loop (-tags
// purego, or a CPU without AVX2+FMA). The two sum in different orders, so
// their answers differ in the last bits and each has its own digests. The
// probe tells them apart by one product: x·x with x = 1+2⁻³⁰ is
// 1+2⁻²⁹+2⁻⁶⁰, which the FMA keeps until -(1+2⁻²⁹) cancels the rest and the
// Go loop rounds away first.
func dotArithmetic() string {
	a, b := make([]float64, 17), make([]float64, 17)
	a[0], b[0] = -(1 + 0x1p-29), 1
	a[16], b[16] = 1+0x1p-30, 1+0x1p-30
	if matrix.Dot4(a, b) != 0 {
		return "fma"
	}
	return "go"
}

// digestRungs are the sparse engines the digests cover on a rows×cols task,
// each at candidate width 16 but for the full-width exact rung. Full NProbe
// probes every cell of the auto geometry of the smaller side.
func digestRungs(rows, cols int) []struct {
	name string
	cfg  PipelineConfig
} {
	const c = 16
	k := min(ann.AutoClusters(rows), ann.AutoClusters(cols))
	return []struct {
		name string
		cfg  PipelineConfig
	}{
		{"exact-c16", PipelineConfig{CandidateBudget: c}},
		{"exact-full", PipelineConfig{CandidateBudget: max(rows, cols)}},
		{"ivf-auto", PipelineConfig{CandidateBudget: c, ANN: &ANNConfig{Seed: 1}}},
		{"ivf-full", PipelineConfig{CandidateBudget: c, ANN: &ANNConfig{Clusters: k, NProbe: k, Seed: 1}}},
		{"sq8", PipelineConfig{CandidateBudget: c, Quant: &QuantConfig{}}},
		{"ivf-sq8", PipelineConfig{CandidateBudget: c, ANN: &ANNConfig{Seed: 1}, Quant: &QuantConfig{}}},
		{"shard1", PipelineConfig{CandidateBudget: c, Shards: 1}},
		{"shard4", PipelineConfig{CandidateBudget: c, Shards: 4}},
	}
}

// digester hashes answers in a fixed binary layout.
type digester struct{ buf []byte }

func (d *digester) int(v int) { d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v)) }

func (d *digester) float(v float64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
}

// graph appends a candidate graph's CSR arrays: its shape, each row's edge
// count, and every edge's column and score bits.
func (d *digester) graph(g *matrix.CandGraph) {
	d.int(g.Rows())
	d.int(g.Cols())
	for i := 0; i < g.Rows(); i++ {
		cols, scores := g.Row(i)
		d.int(len(cols))
		for k, c := range cols {
			d.int(int(c))
			d.float(scores[k])
		}
	}
}

// answer appends a matcher's pairs with their score bits, its abstentions
// and the P/R/F1 bits.
func (d *digester) answer(res *MatchResult, met Metrics) {
	d.int(len(res.Pairs))
	for _, pr := range res.Pairs {
		d.int(pr.Source)
		d.int(pr.Target)
		d.float(pr.Score)
	}
	d.int(len(res.Abstained))
	for _, a := range res.Abstained {
		d.int(a)
	}
	d.float(met.Precision)
	d.float(met.Recall)
	d.float(met.F1)
}

func (d *digester) sum() string { return fmt.Sprintf("%x", sha256.Sum256(d.buf)) }

// answerDigests runs RInf, Hun. and CSLS sparse on every digest rung of a
// D-W task at the benchmark harness's tiny size (×0.012, seeds 1 and 2 mixed
// into the profile's seed as the harness does) and returns one "cell sha256"
// line per seed × rung × matcher, each cell named after the dot arithmetic
// arith first. A cell's hash covers the matcher's pairs with their score bits
// and its abstentions, the P/R/F1 bits, and the run's forward and reverse
// candidate graphs at the rung's width. The rungs an out-of-core run can
// serve — all but the IVF ones, which OutOfCore rejects, and SQ8, which needs
// mmap — run again from a snapshot of the prepared tables, as "ooc-" cells:
// through the build's own out-of-core mode and, where that is mmap, through
// the ReadAt slab windows as well, which must agree with it bit for bit.
func answerDigests(t *testing.T, arith string) []string {
	t.Helper()
	var lines []string
	for seed := int64(1); seed <= 2; seed++ {
		p := datagen.DWY100KDbpWd.Scaled(0.012)
		p.Seed = p.Seed*1_000_003 + seed
		d, err := datagen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		emb, err := EncodeNames(d)
		if err != nil {
			t.Fatal(err)
		}
		snap := filepath.Join(t.TempDir(), "prep.snap")
		base, err := NewPipeline(PipelineConfig{Features: FeatureName, CandidateBudget: 1, SaveSnapshot: snap}).PrepareWithEmbeddings(d, emb)
		if err != nil {
			t.Fatal(err)
		}
		rows, cols := base.Dims()
		for _, rung := range digestRungs(rows, cols) {
			cfg := rung.cfg
			cfg.Features = FeatureName
			run, err := NewPipeline(cfg).PrepareWithEmbeddings(d, emb)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, rung.name, err)
			}
			lines = append(lines, runDigests(t, run, cfg.CandidateBudget, fmt.Sprintf("%s/s%d/%s", arith, seed, rung.name))...)
		}
		for _, rung := range digestRungs(rows, cols) {
			if rung.cfg.ANN != nil || rung.cfg.Quant != nil {
				continue
			}
			cfg := rung.cfg
			cfg.Features, cfg.LoadSnapshot, cfg.OutOfCore = FeatureName, snap, true
			cell := fmt.Sprintf("%s/s%d/ooc-%s", arith, seed, rung.name)
			run, err := NewPipeline(cfg).Prepare(d)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			mode := run.OutOfCoreMode
			got := runDigests(t, run, cfg.CandidateBudget, cell)
			if mode == "mmap" {
				if viaReadAt := runDigests(t, prepareReadAt(t, cfg, d), cfg.CandidateBudget, cell); !slices.Equal(viaReadAt, got) {
					t.Errorf("%s: ReadAt answers %v, mmap answers %v", cell, viaReadAt, got)
				}
			}
			lines = append(lines, got...)
		}
	}
	return lines
}

// runDigests runs RInf, Hun. and CSLS sparse at candidate width c on run,
// closes it, and returns one "cell/matcher sha256" line per matcher.
func runDigests(t *testing.T, run *Run, c int, cell string) []string {
	t.Helper()
	fwd, rev, err := run.graphs.ProduceCandGraphs(context.Background(), c, c)
	if err != nil {
		t.Fatalf("%s: graphs: %v", cell, err)
	}
	var lines []string
	for _, m := range []Matcher{NewRInfSparse(c), NewHungarianSparse(c), NewCSLSSparse(c, 1)} {
		res, met, err := run.Match(m)
		if err != nil {
			t.Fatalf("%s %s: %v", cell, m.Name(), err)
		}
		var h digester
		h.answer(res, met)
		h.graph(fwd)
		h.graph(rev)
		lines = append(lines, fmt.Sprintf("%s/%s %s", cell, strings.TrimSuffix(m.Name(), "-sparse"), h.sum()))
	}
	if err := run.Close(); err != nil {
		t.Fatalf("%s: %v", cell, err)
	}
	return lines
}

// prepareReadAt is prepareLoaded's out-of-core path with the tables served
// through the chunked-ReadAt slab windows — the path a build without mmap
// takes — so that a build with mmap digests both.
func prepareReadAt(t *testing.T, cfg PipelineConfig, d *Dataset) *Run {
	t.Helper()
	p := NewPipeline(cfg)
	r, err := snapshot.OpenReader(cfg.LoadSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	task, err := p.task(d)
	if err != nil {
		t.Fatal(err)
	}
	src, err := r.Table(snapshot.SectionSrcTable)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := r.Table(snapshot.SectionTgtTable)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := sim.NewStreamOOC(src, tgt, sim.Metric(r.Meta().Metric))
	if err != nil {
		t.Fatal(err)
	}
	run, err := p.assemble(context.Background(), d, nil, task, nil, &engine.Tables{Stream: stream}, cfg.engine())
	if err != nil {
		t.Fatal(err)
	}
	run.OutOfCoreMode, run.closer = "readat", r.Close
	return run
}

// denseDigests runs the dense and streaming engines on a D-Z task at the
// same tiny size (×0.012, seeds 1 and 2), each run prepared by the pipeline
// from the dataset so its own encoder and fusion code runs, and returns one
// "cell sha256" line per seed × engine × matcher. A cell's hash covers the
// matcher's pairs with their score bits, its abstentions and the P/R/F1
// bits. The dense engine runs RREA structure features in every setting —
// Hun. and SMat abstain under unmatchable, through MatchWithAbstention at the
// harness's q = 0.3 — and the fused features in 1-to-1; the streaming engine
// runs its three matchers on the structure features.
func denseDigests(t *testing.T, arith string) []string {
	t.Helper()
	oneToOne := append(AllMatchers(), NewRInfWR(), NewRInfPB(50))
	cells := []struct {
		name     string
		cfg      PipelineConfig
		matchers []Matcher
		abstain  []Matcher // run through MatchWithAbstention
	}{
		{"dense-1to1", PipelineConfig{Model: ModelRREA}, oneToOne, nil},
		{"dense-unmatchable", PipelineConfig{Model: ModelRREA, Setting: SettingUnmatchable, WithValidation: true},
			[]Matcher{NewDInf()}, []Matcher{NewHungarian(), NewSMat()}},
		{"dense-non1to1", PipelineConfig{Model: ModelRREA, Setting: SettingNonOneToOne}, AllMatchers(), nil},
		{"dense-fused", PipelineConfig{Model: ModelRREA, Features: FeatureFused}, []Matcher{NewDInf(), NewCSLS(1), NewHungarian()}, nil},
		{"stream", PipelineConfig{Model: ModelRREA, Streaming: true},
			[]Matcher{NewDInfStream(), NewCSLSStream(1), NewSinkhornBlocked(64, DefaultSinkhornIterations)}, nil},
	}
	var lines []string
	for seed := int64(1); seed <= 2; seed++ {
		p := datagen.DBP15KZhEn.Scaled(0.012)
		p.Seed = p.Seed*1_000_003 + seed
		d, err := datagen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range cells {
			run, err := NewPipeline(cell.cfg).Prepare(d)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, cell.name, err)
			}
			for i, m := range append(cell.matchers, cell.abstain...) {
				match := run.Match
				if i >= len(cell.matchers) {
					match = func(m Matcher) (*MatchResult, Metrics, error) { return run.MatchWithAbstention(m, 0.3) }
				}
				res, met, err := match(m)
				if err != nil {
					t.Fatalf("seed %d %s %s: %v", seed, cell.name, m.Name(), err)
				}
				var h digester
				h.answer(res, met)
				lines = append(lines, fmt.Sprintf("%s/s%d/%s/%s %s", arith, seed, cell.name, m.Name(), h.sum()))
			}
		}
	}
	return lines
}

// TestAnswerDigests holds the sparse, dense and streaming engines' answers to
// the digests in testdata/digests.txt: any change to a pair, a score bit, an
// abstention, P/R/F1 or a candidate-graph edge fails the cell that moved. The file holds
// the cells of both dot arithmetics and each build checks its own. A
// refactor meant to keep every bit leaves the file untouched; when a change
// of answer is intended, `go test -run Digest -update .` and the same under
// -tags purego rewrite their own lines and keep the other's.
func TestAnswerDigests(t *testing.T) {
	arith := dotArithmetic()
	got := append(answerDigests(t, arith), denseDigests(t, arith)...)
	data, err := os.ReadFile(digestFile)
	if err != nil && !(*updateDigests && errors.Is(err, fs.ErrNotExist)) {
		t.Fatalf("%v (go test -run Digest -update . writes it)", err)
	}
	var others []string // the other arithmetic's lines, kept by -update
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		cell, sum, _ := strings.Cut(line, " ")
		if line == "" {
			continue
		}
		if !strings.HasPrefix(cell, arith+"/") {
			others = append(others, line)
			continue
		}
		want[cell] = sum
	}
	if *updateDigests {
		lines := append(got, others...)
		slices.Sort(lines)
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, line := range got {
		cell, sum, _ := strings.Cut(line, " ")
		switch w, ok := want[cell]; {
		case !ok:
			t.Errorf("cell %s has no digest in %s", cell, digestFile)
		case w != sum:
			t.Errorf("cell %s: answer digest %s, want %s", cell, sum, w)
		}
		delete(want, cell)
	}
	for cell := range want {
		t.Errorf("cell %s in %s was not produced", cell, digestFile)
	}
}
