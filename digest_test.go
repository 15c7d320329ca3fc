package entmatcher

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"entmatcher/internal/ann"
	"entmatcher/internal/datagen"
	"entmatcher/internal/engine"
	"entmatcher/internal/matrix"
	"entmatcher/internal/server"
	"entmatcher/internal/sim"
	"entmatcher/internal/snapshot"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.txt from this build's answers")

const digestFile = "testdata/digests.txt"

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

// digestTask generates the D-W task of the sparse and server digests at the
// benchmark harness's tiny size (×0.012, seed mixed into the profile's seed
// as the harness does) and encodes its name embeddings.
func digestTask(t *testing.T, seed int64) (*Dataset, *Embeddings) {
	t.Helper()
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
	return d, emb
}

// answerDigests runs RInf, Hun. and CSLS sparse on every digest rung of a
// D-W task at the benchmark harness's tiny size (×0.012, seeds 1 and 2 mixed
// into the profile's seed as the harness does) and returns one "cell sha256"
// line per seed × rung × matcher. A cell's hash covers the matcher's pairs
// with their score bits and its abstentions, the P/R/F1 bits, and the run's
// forward and reverse candidate graphs at the rung's width. The rungs an out-of-core run can
// serve — all but the IVF ones, which OutOfCore rejects, and SQ8, which needs
// mmap — run again from a snapshot of the prepared tables, as "ooc-" cells:
// through the build's own out-of-core mode and, where that is mmap, through
// the ReadAt slab windows as well, which must agree with it bit for bit.
func answerDigests(t *testing.T) []string {
	t.Helper()
	var lines []string
	for seed := int64(1); seed <= 2; seed++ {
		d, emb := digestTask(t, seed)
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
			lines = append(lines, runDigests(t, run, cfg.CandidateBudget, fmt.Sprintf("s%d/%s", seed, rung.name))...)
		}
		for _, rung := range digestRungs(rows, cols) {
			if rung.cfg.ANN != nil || rung.cfg.Quant != nil {
				continue
			}
			cfg := rung.cfg
			cfg.Features, cfg.LoadSnapshot, cfg.OutOfCore = FeatureName, snap, true
			cell := fmt.Sprintf("s%d/ooc-%s", seed, rung.name)
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
func denseDigests(t *testing.T) []string {
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
				lines = append(lines, fmt.Sprintf("s%d/%s/%s %s", seed, cell.name, m.Name(), h.sum()))
			}
		}
	}
	return lines
}

// serveDigests saves two snapshots of the seed-1 D-W task of answerDigests
// and serves each through server.New — and through server.NewMapped as well
// where the build maps, which must answer the same bytes — returning one
// "serve/…" line per snapshot × endpoint. The "ivf-sq8" snapshot records an
// explicit probe count, so its lookups come from the SQ8 quant tier; the
// "ivf-auto" snapshot is float IVF saved with the auto probe count (0) over
// 48 cells, whose lookups probe one cell while /align resolves the auto
// geometry (ROADMAP 1(a)). The topk cell hashes the /match/topk body of
// every source row at k = 10, each align cell the /align body of one
// matcher at candidate width 16, with elapsed_ms masked.
func serveDigests(t *testing.T) []string {
	t.Helper()
	d, emb := digestTask(t, 1)
	var lines []string
	for _, snap := range []struct {
		name string
		cfg  PipelineConfig
	}{
		{"ivf-sq8", PipelineConfig{ANN: &ANNConfig{Clusters: 16, NProbe: 4, Seed: 1}, Quant: &QuantConfig{}}},
		{"ivf-auto", PipelineConfig{ANN: &ANNConfig{Clusters: 48, Seed: 1}}},
	} {
		cfg := snap.cfg
		cfg.Features, cfg.CandidateBudget = FeatureName, 16
		cfg.SaveSnapshot = filepath.Join(t.TempDir(), snap.name+".snap")
		run, err := NewPipeline(cfg).PrepareWithEmbeddings(d, emb)
		if err != nil {
			t.Fatalf("serve/%s: %v", snap.name, err)
		}
		if err := run.Close(); err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(cfg.SaveSnapshot, server.Config{})
		if err != nil {
			t.Fatalf("serve/%s: %v", snap.name, err)
		}
		got := serverDigests(t, srv, "serve/s1/"+snap.name)
		if snapshot.MmapSupported {
			mapped, err := server.NewMapped(cfg.SaveSnapshot, server.Config{})
			if err != nil {
				t.Fatalf("serve/%s: %v", snap.name, err)
			}
			if !mapped.Mapped() {
				t.Fatalf("serve/%s: NewMapped did not map the tables", snap.name)
			}
			if viaMmap := serverDigests(t, mapped, "serve/s1/"+snap.name); !slices.Equal(viaMmap, got) {
				t.Errorf("serve/%s: mapped server answers %v, loaded server answers %v", snap.name, viaMmap, got)
			}
			if err := mapped.Close(); err != nil {
				t.Fatal(err)
			}
		}
		lines = append(lines, got...)
	}
	return lines
}

var elapsedField = regexp.MustCompile(`"elapsed_ms":\d+`)

// serverDigests returns srv's topk and align lines under the cell prefix.
func serverDigests(t *testing.T, srv *server.Server, cell string) []string {
	t.Helper()
	h := srv.Handler()
	body := func(req *http.Request) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %s %s: status %d (body %s)", cell, req.Method, req.URL, rec.Code, rec.Body)
		}
		return elapsedField.ReplaceAll(rec.Body.Bytes(), []byte(`"elapsed_ms":0`))
	}
	var topk digester
	rows, _ := srv.Dims()
	for row := 0; row < rows; row++ {
		topk.buf = append(topk.buf, body(httptest.NewRequest(http.MethodGet, fmt.Sprintf("/match/topk?row=%d&k=10", row), nil))...)
	}
	lines := []string{fmt.Sprintf("%s/topk %s", cell, topk.sum())}
	for _, m := range []string{"RInf", "Hun.", "CSLS"} {
		req := httptest.NewRequest(http.MethodPost, "/align", strings.NewReader(fmt.Sprintf(`{"matcher":%q,"cand":16}`, m)))
		align := digester{buf: body(req)}
		lines = append(lines, fmt.Sprintf("%s/align/%s %s", cell, m, align.sum()))
	}
	return lines
}

// TestAnswerDigests holds the sparse, dense and streaming engines' answers
// and the server's response bodies to the digests in testdata/digests.txt:
// any change to a pair, a score bit, an abstention, P/R/F1, a
// candidate-graph edge or a served byte fails the cell that moved. Every
// build scores with one dot-product arithmetic (internal/matrix's kernels.go),
// so the asm and purego builds check the same cells. A refactor meant to
// keep every bit leaves the file untouched; when a change of answer is
// intended, `go test -run Digest -update .` rewrites it.
func TestAnswerDigests(t *testing.T) {
	got := append(answerDigests(t), denseDigests(t)...)
	got = append(got, serveDigests(t)...)
	if *updateDigests {
		slices.Sort(got)
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("%v (go test -run Digest -update . writes it)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if cell, sum, ok := strings.Cut(line, " "); ok {
			want[cell] = sum
		}
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
