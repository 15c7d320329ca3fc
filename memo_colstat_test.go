package entmatcher

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"entmatcher/internal/ann"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
	"entmatcher/internal/sim"
)

// colStatCase is one embedding pair of the column-statistic differential.
type colStatCase struct {
	name     string
	src, tgt *matrix.Dense
}

// colStatCases are the SQ8 conformance suite's embedding shapes — clusters,
// duplicate rows, 1-ulp near-ties, all-constant tables, constant dimensions
// — at a size the full settings grid scans quickly, and headDiffers.
func colStatCases(seed int64) []colStatCase {
	rng := rand.New(rand.NewSource(seed))
	gauss := func(n, d, nClust int, noise float64) *matrix.Dense {
		centers := matrix.New(nClust, d)
		for i := range centers.Data() {
			centers.Data()[i] = rng.NormFloat64()
		}
		m := matrix.New(n, d)
		for i := 0; i < n; i++ {
			for x, c := range centers.Row(rng.Intn(nClust)) {
				m.Row(i)[x] = c + noise*rng.NormFloat64()
			}
		}
		return m
	}
	dupRows := func(n, d int) *matrix.Dense {
		base := gauss(n/3+1, d, 2, 0.2)
		m := matrix.New(n, d)
		for i := 0; i < n; i++ {
			copy(m.Row(i), base.Row(i%base.Rows()))
		}
		return m
	}
	nearTies := func(n, d int) *matrix.Dense {
		base := gauss(1, d, 1, 0)
		m := matrix.New(n, d)
		for i := 0; i < n; i++ {
			row := m.Row(i)
			copy(row, base.Row(0))
			if x := i % d; i%2 == 0 {
				row[x] = math.Nextafter(row[x], math.Inf(1))
			} else {
				row[x] = math.Nextafter(row[x], math.Inf(-1))
			}
		}
		return m
	}
	constant := func(n, d int) *matrix.Dense {
		m := matrix.New(n, d)
		for i := range m.Data() {
			m.Data()[i] = 0.25
		}
		return m
	}
	constDims := func(n, d int) *matrix.Dense {
		m := gauss(n, d, 3, 0.3)
		for i := 0; i < n; i++ {
			for x := 0; x < d; x += 2 {
				m.Row(i)[x] = 0.5
			}
		}
		return m
	}
	return []colStatCase{
		{"clustered", gauss(48, 32, 5, 0.3), gauss(44, 32, 5, 0.3)},
		{"duplicate-rows", dupRows(36, 32), dupRows(30, 32)},
		{"near-ties-1ulp", nearTies(40, 32), nearTies(40, 32)},
		{"constant", constant(25, 32), constant(25, 32)},
		{"constant-dims", constDims(30, 16), constDims(28, 16)},
		{"tiny", gauss(3, 32, 1, 0.3), gauss(2, 32, 1, 0.3)},
		headDiffers(rng),
	}
}

// headDiffers is the input where a wide reverse search's head is not the
// column's KCol = 1 statistic: one tight cluster whose spread is a few SQ8
// steps, so the int8 order of a column's best few rows often disagrees with
// their exact order, and a narrow pool misses the row a wider one re-ranks
// to the top. TestMemoColStatByProduct asserts that it happens.
func headDiffers(rng *rand.Rand) colStatCase {
	const d = 16
	base := make([]float64, d)
	for x := range base {
		base[x] = rng.NormFloat64()
	}
	table := func(n int) *matrix.Dense {
		m := matrix.New(n, d)
		for i := 0; i < n; i++ {
			for x, b := range base {
				m.Row(i)[x] = b + 0.05*rng.NormFloat64()
			}
		}
		return m
	}
	return colStatCase{"head-differs", table(64), table(48)}
}

// sq8Engine is one SQ8 producer under test.
type sq8Engine struct {
	name string
	p    matrix.PartsProducer
}

// sq8Tables is an input's prepared tables, their SQ8 codes and one IVF
// source over them, shared by every setting so the indexes train once.
type sq8Tables struct {
	st         *sim.Stream
	srcQ, tgtQ *quant.Table
	ivf        *ann.Source
	k          int // IVF cells
}

func newSQ8Tables(t *testing.T, st *sim.Stream) *sq8Tables {
	t.Helper()
	cc := context.Background()
	sTab, tTab := st.PreparedTables()
	srcQ, err := quant.Encode(cc, sTab)
	if err != nil {
		t.Fatal(err)
	}
	tgtQ, err := quant.Encode(cc, tTab)
	if err != nil {
		t.Fatal(err)
	}
	k := min(ann.AutoClusters(sTab.Rows()), ann.AutoClusters(tTab.Rows()))
	ivf, err := ann.NewSource(st, sTab, tTab, ann.Config{Clusters: k, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &sq8Tables{st: st, srcQ: srcQ, tgtQ: tgtQ, ivf: ivf, k: k}
}

// engines returns the flat SQ8 source and IVF+SQ8 at auto, partial and full
// NProbe, every one scanning at (factor, rerank).
func (in *sq8Tables) engines(t *testing.T, factor int, rerank bool) []sq8Engine {
	t.Helper()
	sTab, tTab := in.st.PreparedTables()
	flat, err := quant.NewSource(in.st, sTab, tTab, in.srcQ, in.tgtQ, factor, rerank)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ivf.EnableQuant(in.srcQ, in.tgtQ, factor, rerank); err != nil {
		t.Fatal(err)
	}
	half := max(1, in.k/2)
	return []sq8Engine{
		{"flat", flat},
		{"ivf-auto", in.ivf},
		{fmt.Sprintf("ivf-nprobe%d", half), in.ivf.WithNProbe(half)},
		{fmt.Sprintf("ivf-nprobe%d", in.k), in.ivf.WithNProbe(in.k)},
	}
}

func graphBits(g *matrix.CandGraph) string {
	var h digester
	h.graph(g)
	return h.sum()
}

// colStatDiff runs the differential on one producer and returns how many
// columns' KCol = 1 statistic differs from the head of a wider plain
// reverse search: a request for the reverse graph at CRev and the column
// statistic at KCol must return the reverse graph of a plain CRev request
// and the means of a plain KCol request, bit for bit — served by one
// reverse search when KCol <= CRev, by two otherwise.
func colStatDiff(t *testing.T, name string, p matrix.PartsProducer, crevs []int) (headMisses int) {
	t.Helper()
	cc := context.Background()
	rev := map[int]*matrix.CandGraph{}
	means := map[int][]float64{}
	for _, c := range crevs {
		for _, k := range []int{1, 2, c} {
			if _, ok := means[k]; ok {
				continue
			}
			parts, err := p.ProduceParts(cc, matrix.GraphRequest{KCol: k})
			if err != nil {
				t.Fatalf("%s KCol=%d: %v", name, k, err)
			}
			means[k] = parts.ColMeans
		}
		parts, err := p.ProduceParts(cc, matrix.GraphRequest{CRev: c})
		if err != nil {
			t.Fatalf("%s CRev=%d: %v", name, c, err)
		}
		rev[c] = parts.Rev
	}
	for _, c := range crevs {
		want := graphBits(rev[c])
		for _, k := range []int{1, 2, c} {
			got, err := p.ProduceParts(cc, matrix.GraphRequest{CRev: c, KCol: k})
			if err != nil {
				t.Fatalf("%s CRev=%d KCol=%d: %v", name, c, k, err)
			}
			if graphBits(got.Rev) != want {
				t.Fatalf("%s CRev=%d KCol=%d: reverse graph differs from a plain CRev search", name, c, k)
			}
			if len(got.ColMeans) != len(means[k]) {
				t.Fatalf("%s CRev=%d KCol=%d: %d means, a separate KCol search gives %d", name, c, k, len(got.ColMeans), len(means[k]))
			}
			for j, m := range means[k] {
				if math.Float64bits(got.ColMeans[j]) != math.Float64bits(m) {
					t.Fatalf("%s CRev=%d KCol=%d: column %d mean %v, a separate KCol search gives %v", name, c, k, j, got.ColMeans[j], m)
				}
			}
		}
		for j, m := range means[1] {
			var head float64
			if cols, scores := rev[c].Row(j); len(cols) > 0 {
				head += scores[0]
			}
			if math.Float64bits(head) != math.Float64bits(m) {
				headMisses++
			}
		}
	}
	return headMisses
}

// TestMemoColStatByProduct pins the SQ8 reverse search's by-product — the
// column statistic the graph memo takes alongside a reverse build — to a
// separate KCol search, bit for bit, and its reverse graph to a plain one:
// on the flat SQ8 scan and IVF+SQ8 at auto, partial and full NProbe, with
// re-rank on and off, at factors 1, 2, 4 and the default, CRev 1, 2, 16 and
// full, KCol 1, 2 and CRev (KCol > CRev takes two searches). The float IVF
// search, which answers with the prefix of its top-CRev, is held to the same
// and must never miss its head. The inputs are the SQ8 conformance shapes,
// the digest's D-W task (seeds 1 and 2) and headDiffers, where the SQ8
// statistic must differ from a wide head somewhere — the input that tells
// the by-product from reading the wide head. The D-W task runs at the
// smallest and the default factor and without full CRev (a sort of every
// column there), and -short — the guards' purego leg, where the scalar
// kernels run under -race — leaves it out.
func TestMemoColStatByProduct(t *testing.T) {
	type input struct {
		name    string
		crevs   []int
		factors []int
		*sq8Tables
	}
	var inputs []input
	for _, tc := range colStatCases(23) {
		st, err := sim.NewStream(tc.src, tc.tgt, sim.Cosine)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{tc.name, []int{1, 2, 16, tc.src.Rows()}, []int{1, 2, 4, 0}, newSQ8Tables(t, st)})
	}
	for seed := int64(1); seed <= 2 && !testing.Short(); seed++ {
		d, emb := digestTask(t, seed)
		run, err := NewPipeline(PipelineConfig{Features: FeatureName, CandidateBudget: 16}).PrepareWithEmbeddings(d, emb)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("dw-s%d", seed), []int{1, 2, 16}, []int{1, 0}, newSQ8Tables(t, run.Stream)})
	}
	headMisses := map[string]int{}
	for _, in := range inputs {
		sTab, tTab := in.st.PreparedTables()
		float, err := ann.NewSource(in.st, sTab, tTab, ann.Config{Clusters: in.k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, np := range []int{0, max(1, in.k/2), in.k} {
			name := fmt.Sprintf("%s/ivf-float-nprobe%d", in.name, np)
			if misses := colStatDiff(t, name, float.WithNProbe(np), in.crevs); misses != 0 {
				t.Fatalf("%s: %d columns' KCol = 1 statistic is not the head of a wider search", name, misses)
			}
		}
		for _, factor := range in.factors {
			for _, rerank := range []bool{true, false} {
				for _, e := range in.engines(t, factor, rerank) {
					name := fmt.Sprintf("%s/%s/factor%d/rerank=%v", in.name, e.name, factor, rerank)
					headMisses[in.name] += colStatDiff(t, name, e.p, in.crevs)
				}
			}
		}
	}
	t.Logf("columns whose SQ8 KCol = 1 statistic is not a wider search's head, summed over the grid: %v", headMisses)
	if headMisses["head-differs"] == 0 {
		t.Fatal("head-differs: every column's statistic equals the head of every wider search; the input no longer tells the two apart")
	}
}
