package quant_test

import (
	"context"
	"testing"

	"entmatcher"
	"entmatcher/internal/datagen"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
)

// TestScanTallyRInfHunCSLS pins the int8 scanning of the matcher sequence
// RInf → Hun. → CSLS (k = 1) on the answer digests' D-W task (×0.012, seeds
// 1 and 2) through the flat SQ8 and the IVF+SQ8 engines at C = 16: two query
// tables are searched — the forward one and the reverse one, which also
// returns CSLS's column statistic — and the positions scored are one forward
// and one reverse search's, where a separate statistic search would add a
// second reverse pass.
func TestScanTallyRInfHunCSLS(t *testing.T) {
	const c = 16
	ctx := context.Background()
	for seed := int64(1); seed <= 2; seed++ {
		p := datagen.DWY100KDbpWd.Scaled(0.012)
		p.Seed = p.Seed*1_000_003 + seed
		d, err := datagen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		emb, err := entmatcher.EncodeNames(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []struct {
			name string
			ann  *entmatcher.ANNConfig
		}{{"sq8", nil}, {"ivf-sq8", &entmatcher.ANNConfig{Seed: 1}}} {
			cfg := entmatcher.PipelineConfig{Features: entmatcher.FeatureName, CandidateBudget: c, ANN: eng.ann, Quant: &entmatcher.QuantConfig{}}
			run, err := entmatcher.NewPipeline(cfg).PrepareWithEmbeddings(d, emb)
			if err != nil {
				t.Fatal(err)
			}
			// One search of each direction through the un-memoized producer.
			raw := run.Ctx.Stream.(*matrix.GraphMemo).Source().(matrix.PartsProducer)
			var one [2]struct{ queries, positions int64 }
			for i, req := range []matrix.GraphRequest{{C: c}, {CRev: c}} {
				q0, p0 := quant.ScanTally()
				if _, err := raw.ProduceParts(ctx, req); err != nil {
					t.Fatal(err)
				}
				q1, p1 := quant.ScanTally()
				one[i].queries, one[i].positions = q1-q0, p1-p0
			}
			q0, p0 := quant.ScanTally()
			for _, m := range []entmatcher.Matcher{entmatcher.NewRInfSparse(c), entmatcher.NewHungarianSparse(c), entmatcher.NewCSLSSparse(c, 1)} {
				if _, _, err := run.Match(m); err != nil {
					t.Fatal(err)
				}
			}
			q1, p1 := quant.ScanTally()
			queries, positions := q1-q0, p1-p0
			fwd, rev := one[0], one[1]
			t.Logf("s%d/%s: %d query rows, %d int8 positions scored (forward %d/%d, reverse %d/%d; a separate statistic search would make it %d/%d)",
				seed, eng.name, queries, positions, fwd.queries, fwd.positions, rev.queries, rev.positions,
				fwd.queries+2*rev.queries, fwd.positions+2*rev.positions)
			rows, cols := run.Dims()
			if fwd.queries != int64(rows) || rev.queries != int64(cols) {
				t.Fatalf("s%d/%s: one search of each direction took %d and %d query rows on a %d×%d task", seed, eng.name, fwd.queries, rev.queries, rows, cols)
			}
			if queries != fwd.queries+rev.queries || positions != fwd.positions+rev.positions {
				t.Fatalf("s%d/%s: RInf, Hun., CSLS searched %d query rows and scored %d positions, want one forward and one reverse search's %d and %d",
					seed, eng.name, queries, positions, fwd.queries+rev.queries, fwd.positions+rev.positions)
			}
			if st := run.GraphStats(); st.Builds != 1 || st.Hits != 2 || st.Derived != 1 {
				t.Fatalf("s%d/%s: memo %+v, want 1 build, 2 hits, 1 derived", seed, eng.name, st)
			}
		}
	}
}
