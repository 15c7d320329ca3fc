package quant_test

import (
	"context"
	"slices"
	"testing"

	"entmatcher"
	"entmatcher/internal/datagen"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
)

// TestScanTallyRInfHunCSLS pins the int8 scanning of the matchers RInf,
// Hun. and CSLS (k = 1), in all six orders, on the answer digests' D-W task
// (×0.012, seeds 1 and 2) through the flat SQ8 and the IVF+SQ8 engines at
// C = 16. Where RInf precedes CSLS two query tables are searched — the
// forward one and the reverse one, which also returns CSLS's column
// statistic — and the positions scored are one forward and one reverse
// search's. Where CSLS precedes RInf it asks for its statistic before any
// reverse build and pays a reverse search of its own: forward + 2 × reverse.
// Hun. on a square task builds the forward graph alone.
func TestScanTallyRInfHunCSLS(t *testing.T) {
	const c = 16
	ctx := context.Background()
	matchers := []struct {
		name string
		new  func() entmatcher.Matcher
	}{
		{"RInf", func() entmatcher.Matcher { return entmatcher.NewRInfSparse(c) }},
		{"Hun.", func() entmatcher.Matcher { return entmatcher.NewHungarianSparse(c) }},
		{"CSLS", func() entmatcher.Matcher { return entmatcher.NewCSLSSparse(c, 1) }},
	}
	orders := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
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
			fwd, rev := one[0], one[1]
			rows, cols := run.Dims()
			if fwd.queries != int64(rows) || rev.queries != int64(cols) {
				t.Fatalf("s%d/%s: one search of each direction took %d and %d query rows on a %d×%d task", seed, eng.name, fwd.queries, rev.queries, rows, cols)
			}
			for _, order := range orders {
				run.ForgetGraphs()
				before := run.GraphStats()
				q0, p0 := quant.ScanTally()
				names := ""
				for _, i := range order {
					if _, _, err := run.Match(matchers[i].new()); err != nil {
						t.Fatal(err)
					}
					names += matchers[i].name + " "
				}
				q1, p1 := quant.ScanTally()
				queries, positions := q1-q0, p1-p0
				revSearches, derived := int64(1), int64(1)
				if slices.Index(order[:], 2) < slices.Index(order[:], 0) {
					revSearches, derived = 2, 0
				}
				wantQ, wantP := fwd.queries+revSearches*rev.queries, fwd.positions+revSearches*rev.positions
				t.Logf("s%d/%s %s: %d query rows, %d int8 positions scored (forward %d/%d, reverse %d/%d)",
					seed, eng.name, names, queries, positions, fwd.queries, fwd.positions, rev.queries, rev.positions)
				if queries != wantQ || positions != wantP {
					t.Fatalf("s%d/%s %s: searched %d query rows and scored %d positions, want forward + %d × reverse: %d and %d",
						seed, eng.name, names, queries, positions, revSearches, wantQ, wantP)
				}
				if got := run.GraphStats().Derived - before.Derived; got != derived {
					t.Fatalf("s%d/%s %s: %d parts derived, want %d", seed, eng.name, names, got, derived)
				}
			}
		}
	}
}
