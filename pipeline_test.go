package entmatcher

import (
	"errors"
	"math"
	"testing"
)

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := GenerateBenchmark(ProfileDBP15KZhEn, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPipelineOneToOneEndToEnd(t *testing.T) {
	d := smallDataset(t)
	run, err := NewPipeline(PipelineConfig{Model: ModelRREA}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	n := d.Split.Test.Len()
	if run.S.Rows() != n || run.S.Cols() != n {
		t.Fatalf("similarity matrix %d×%d, want %d×%d", run.S.Rows(), run.S.Cols(), n, n)
	}
	res, m, err := run.Match(NewDInf())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != n {
		t.Fatalf("DInf emitted %d pairs for %d rows", len(res.Pairs), n)
	}
	// Under 1-to-1, precision = recall = F1.
	if m.Precision != m.Recall || m.Recall != m.F1 {
		t.Fatalf("P/R/F1 diverge under 1-to-1: %v", m)
	}
	if m.F1 < 0.2 {
		t.Fatalf("RREA DInf F1 = %v, implausibly low", m.F1)
	}
}

// TestPipelineMatcherOrdering reproduces the paper's headline finding on a
// small instance: collective/assignment matchers beat the greedy baseline.
func TestPipelineMatcherOrdering(t *testing.T) {
	d := smallDataset(t)
	run, err := NewPipeline(PipelineConfig{Model: ModelRREA, WithValidation: true}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	f1 := make(map[string]float64)
	for _, m := range AllMatchers() {
		_, metrics, err := run.Match(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		f1[m.Name()] = metrics.F1
	}
	if f1["Hun."] <= f1["DInf"] {
		t.Fatalf("Hungarian %v not above DInf %v", f1["Hun."], f1["DInf"])
	}
	if f1["Sink."] <= f1["DInf"] {
		t.Fatalf("Sinkhorn %v not above DInf %v", f1["Sink."], f1["DInf"])
	}
	if f1["CSLS"] < f1["DInf"] {
		t.Fatalf("CSLS %v below DInf %v", f1["CSLS"], f1["DInf"])
	}
}

func TestPipelineNameAndFusedFeatures(t *testing.T) {
	d := smallDataset(t)
	for _, mode := range []FeatureMode{FeatureName, FeatureFused} {
		run, err := NewPipeline(PipelineConfig{Model: ModelRREA, Features: mode}).Prepare(d)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if _, m, err := run.Match(NewDInf()); err != nil || m.F1 <= 0 {
			t.Fatalf("%v: F1=%v err=%v", mode, m.F1, err)
		}
	}
}

func TestPipelineUnmatchableSetting(t *testing.T) {
	d := smallDataset(t)
	run, err := NewPipeline(PipelineConfig{Model: ModelRREA, Setting: SettingUnmatchable, WithValidation: true}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	if run.S.Rows() <= d.Split.Test.Len() {
		t.Fatal("unmatchable rows not added")
	}
	_, greedy, err := run.Match(NewDInf())
	if err != nil {
		t.Fatal(err)
	}
	// Greedy matches every row including unmatchables → precision < recall.
	if greedy.Precision >= greedy.Recall {
		t.Fatalf("greedy P=%v not below R=%v under unmatchable", greedy.Precision, greedy.Recall)
	}
	_, hun, err := run.MatchWithAbstention(NewHungarian(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if hun.F1 <= greedy.F1 {
		t.Fatalf("Hungarian+abstention F1 %v not above DInf %v", hun.F1, greedy.F1)
	}
	if _, _, err := run.MatchWithAbstention(NewHungarian(), math.NaN()); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("q = NaN: got %v, want ErrBadConfig", err)
	}
	// Abstention without validation must fail loudly.
	bare, err := NewPipeline(PipelineConfig{Model: ModelRREA, Setting: SettingUnmatchable}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bare.MatchWithAbstention(NewHungarian(), 0.3); err == nil {
		t.Fatal("abstention without validation accepted")
	}
}

func TestPipelineNonOneToOneSetting(t *testing.T) {
	d, err := GenerateNonOneToOneBenchmark(ProfileFBDBPMul, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewPipeline(PipelineConfig{Model: ModelRREA, Setting: SettingNonOneToOne}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := run.Match(NewDInf())
	if err != nil {
		t.Fatal(err)
	}
	// Single-prediction methods cannot reach full recall on multi-link gold.
	if m.Recall >= 0.9 {
		t.Fatalf("recall %v implausibly high for single predictions on multi-links", m.Recall)
	}
}

func TestPipelineRejectsUnknownConfig(t *testing.T) {
	d := smallDataset(t)
	if _, err := NewPipeline(PipelineConfig{Features: FeatureMode(9)}).Prepare(d); err == nil {
		t.Fatal("unknown feature mode accepted")
	}
	if _, err := NewPipeline(PipelineConfig{Setting: Setting(9)}).Prepare(d); err == nil {
		t.Fatal("unknown setting accepted")
	}
	if _, err := NewPipeline(PipelineConfig{CandidateBudget: -1}).Prepare(d); err == nil {
		t.Fatal("negative candidate budget accepted")
	}
}

// TestPipelineCandidateBudgetPreparesStreaming pins the sparse-engine wiring:
// a positive CandidateBudget forces the streaming prepare (no dense matrix),
// and the sparse candidate-graph matchers run and score on the resulting run.
func TestPipelineCandidateBudgetPreparesStreaming(t *testing.T) {
	d := smallDataset(t)
	run, err := NewPipeline(PipelineConfig{Model: ModelRREA, CandidateBudget: 16}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	if run.S != nil || run.Stream == nil {
		t.Fatalf("CandidateBudget run: S=%v Stream=%v, want streaming-only", run.S != nil, run.Stream != nil)
	}
	res, m, err := run.Match(NewRInfSparse(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 || m.F1 < 0.2 {
		t.Fatalf("RInf-sparse on streaming run: %d pairs, F1 = %v", len(res.Pairs), m.F1)
	}
}

// TestPipelineANNWiring pins the IVF candidate-generation seam: an ANN
// config installs the producer in the match context, sparse matchers run
// and score through it, and at NProbe = Clusters the results equal the
// exact sparse run's exactly. Abstention (virtual dummy columns) must keep
// working by falling back to the exact build.
func TestPipelineANNWiring(t *testing.T) {
	d := smallDataset(t)
	const c = 16
	exact, err := NewPipeline(PipelineConfig{Model: ModelRREA, CandidateBudget: c, WithValidation: true}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewPipeline(PipelineConfig{
		Model: ModelRREA, CandidateBudget: c, WithValidation: true,
		ANN: &ANNConfig{Clusters: 8, NProbe: 8},
	}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	resExact, mExact, err := exact.Match(NewRInfSparse(c))
	if err != nil {
		t.Fatal(err)
	}
	resFull, mFull, err := full.Match(NewRInfSparse(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(resExact.Pairs) != len(resFull.Pairs) || mExact.F1 != mFull.F1 {
		t.Fatalf("full-coverage ANN diverges from exact: %d/%v vs %d/%v",
			len(resFull.Pairs), mFull.F1, len(resExact.Pairs), mExact.F1)
	}
	for i := range resExact.Pairs {
		if resExact.Pairs[i] != resFull.Pairs[i] {
			t.Fatalf("pair %d differs: %v vs %v", i, resFull.Pairs[i], resExact.Pairs[i])
		}
	}
	// Partial coverage still matches plausibly.
	part, err := NewPipeline(PipelineConfig{
		Model: ModelRREA, CandidateBudget: c, WithValidation: true,
		ANN: &ANNConfig{Clusters: 8, NProbe: 2},
	}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	_, mPart, err := part.Match(NewRInfSparse(c))
	if err != nil {
		t.Fatal(err)
	}
	if mPart.F1 < mExact.F1-0.1 {
		t.Fatalf("partial-probe F1 %v implausibly far below exact %v", mPart.F1, mExact.F1)
	}
	// Abstention pads the run's Ctx.Stream; the padded view hides the IVF
	// producer, so at partial coverage every matcher still answers from the
	// exact tiles, exactly as on the exact run over the same tables.
	for _, m := range []Matcher{NewCSLSStream(1), NewSinkhornBlocked(16, 10), NewRInfSparse(c), NewHungarianSparse(c)} {
		want, _, err := exact.MatchWithAbstention(m, 0.3)
		if err != nil {
			t.Fatalf("%s abstention on the exact run: %v", m.Name(), err)
		}
		got, _, err := part.MatchWithAbstention(m, 0.3)
		if err != nil {
			t.Fatalf("%s abstention on the ANN run: %v", m.Name(), err)
		}
		if !samePairs(want, got) || len(want.Abstained) == 0 {
			t.Fatalf("%s abstention: ANN run %d pairs/%d abstained, exact run %d/%d", m.Name(),
				len(got.Pairs), len(got.Abstained), len(want.Pairs), len(want.Abstained))
		}
	}
}

func TestPipelineANNConfigValidation(t *testing.T) {
	d := smallDataset(t)
	if _, err := NewPipeline(PipelineConfig{ANN: &ANNConfig{}}).Prepare(d); err == nil {
		t.Fatal("ANN without CandidateBudget accepted")
	}
	if _, err := NewPipeline(PipelineConfig{CandidateBudget: 8, Metric: MetricEuclidean, ANN: &ANNConfig{}}).Prepare(d); err == nil {
		t.Fatal("ANN with non-cosine metric accepted")
	}
	if _, err := NewPipeline(PipelineConfig{CandidateBudget: 8, ANN: &ANNConfig{Clusters: -1}}).Prepare(d); err == nil {
		t.Fatal("negative ANN.Clusters accepted")
	}
	if _, err := NewPipeline(PipelineConfig{CandidateBudget: 8, ANN: &ANNConfig{Clusters: 4, NProbe: 5}}).Prepare(d); err == nil {
		t.Fatal("ANN.NProbe > Clusters accepted")
	}
}

// TestPipelineQuantWiring pins the SQ8 candidate-generation seam: a Quant
// config routes graph construction through the quantized scan + exact
// re-rank, standalone or composed with ANN, and at the default rerank factor
// the matcher results equal the exact sparse run's bit for bit. The
// quantized-only escape hatch still runs and scores plausibly.
func TestPipelineQuantWiring(t *testing.T) {
	d := smallDataset(t)
	const c = 16
	exact, err := NewPipeline(PipelineConfig{Model: ModelRREA, CandidateBudget: c}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	resExact, mExact, err := exact.Match(NewRInfSparse(c))
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]PipelineConfig{
		"quant-only": {Model: ModelRREA, CandidateBudget: c, Quant: &QuantConfig{}},
		"quant+ann": {Model: ModelRREA, CandidateBudget: c,
			ANN: &ANNConfig{Clusters: 8, NProbe: 8}, Quant: &QuantConfig{}},
	} {
		run, err := NewPipeline(cfg).Prepare(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, m, err := run.Match(NewRInfSparse(c))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Pairs) != len(resExact.Pairs) || m.F1 != mExact.F1 {
			t.Fatalf("%s diverges from exact: %d/%v vs %d/%v",
				name, len(res.Pairs), m.F1, len(resExact.Pairs), mExact.F1)
		}
		for i := range res.Pairs {
			if res.Pairs[i] != resExact.Pairs[i] {
				t.Fatalf("%s pair %d differs: %v vs %v", name, i, res.Pairs[i], resExact.Pairs[i])
			}
		}
	}
	// Quantized-only: approximate scores, still a plausible matching.
	raw, err := NewPipeline(PipelineConfig{
		Model: ModelRREA, CandidateBudget: c, Quant: &QuantConfig{NoRerank: true},
	}).Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	_, mRaw, err := raw.Match(NewRInfSparse(c))
	if err != nil {
		t.Fatal(err)
	}
	if mRaw.F1 < mExact.F1-0.1 {
		t.Fatalf("quantized-only F1 %v implausibly far below exact %v", mRaw.F1, mExact.F1)
	}
}

func TestPipelineQuantConfigValidation(t *testing.T) {
	d := smallDataset(t)
	if _, err := NewPipeline(PipelineConfig{Quant: &QuantConfig{}}).Prepare(d); err == nil {
		t.Fatal("Quant without CandidateBudget accepted")
	}
	if _, err := NewPipeline(PipelineConfig{CandidateBudget: 8, Metric: MetricEuclidean, Quant: &QuantConfig{}}).Prepare(d); err == nil {
		t.Fatal("Quant with non-cosine metric accepted")
	}
	if _, err := NewPipeline(PipelineConfig{CandidateBudget: 8, Quant: &QuantConfig{RerankFactor: -1}}).Prepare(d); err == nil {
		t.Fatal("negative Quant.RerankFactor accepted")
	}
}

func TestEnumStrings(t *testing.T) {
	if FeatureStructure.String() != "structure" || FeatureName.String() != "name" || FeatureFused.String() != "name+structure" {
		t.Fatal("feature mode names wrong")
	}
	if SettingOneToOne.String() != "1-to-1" || SettingUnmatchable.String() != "unmatchable" || SettingNonOneToOne.String() != "non-1-to-1" {
		t.Fatal("setting names wrong")
	}
	if FeatureMode(9).String() == "" || Setting(9).String() == "" {
		t.Fatal("unknown enums have empty names")
	}
}

func TestFacadeHelpers(t *testing.T) {
	d := smallDataset(t)
	emb, err := EncodeStructure(d, ModelGCN)
	if err != nil {
		t.Fatal(err)
	}
	names, err := EncodeNames(d)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := FuseEmbeddings(emb, names, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SimilarityMatrix(fused.Source, fused.Target, MetricCosine)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows() != d.Source.NumEntities() {
		t.Fatalf("similarity rows %d", s.Rows())
	}
	dir := t.TempDir()
	if err := SaveDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset(dir, d.Name)
	if err != nil {
		t.Fatal(err)
	}
	if back.Split.Test.Len() != d.Split.Test.Len() {
		t.Fatal("dataset round trip changed the test set")
	}
}

func TestAllMatchersCount(t *testing.T) {
	if got := len(AllMatchers()); got != 7 {
		t.Fatalf("AllMatchers returned %d algorithms, want the paper's 7", got)
	}
}
