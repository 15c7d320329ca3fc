package main

import (
	"testing"

	"entmatcher"
	"entmatcher/internal/datagen"
)

// TestDecoratorTransparent pins that the traced pass measures the same
// program as the untraced one: on a ~512 x 512 task every sparse matcher
// returns identical pairs and scores with and without the tracing tile
// source, over the exact, ann, quant, ann_quant and shard4 sources.
func TestDecoratorTransparent(t *testing.T) {
	p := datagen.DWY100KDbpWd
	p.GoldLinks = 732 // the test split is 70% of the links: 512 rows
	d, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := entmatcher.EncodeNames(d)
	if err != nil {
		t.Fatal(err)
	}
	// The same engine configurations the workloads run, minus the one that
	// needs a snapshot on disk (its tables are pinned identical by the
	// shard4_ooc graph check of sparse_indexed).
	variants := append(batchVariants(wlSparseExact), batchVariants(wlSparseIndexed)...)
	for _, v := range variants {
		name, cfg := v.name, v.cfg("")
		if cfg.LoadSnapshot != "" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			prepare := func() *entmatcher.Run {
				run, err := entmatcher.NewPipeline(cfg).PrepareWithEmbeddings(d, emb)
				if err != nil {
					t.Fatal(err)
				}
				return run
			}
			plain, wrapped := prepare(), prepare()
			if rows, cols := plain.Dims(); rows < 500 || rows > 525 || cols != rows {
				t.Fatalf("task is %dx%d, want about 512x512", rows, cols)
			}
			rec := newRecorder()
			src := &tracedSource{inner: wrapped.Ctx.Stream, rec: rec, span: "produce"}
			wrapped.Ctx.Stream = src
			for _, key := range sparseKeys {
				newMatcher := sparseMatchers[key]
				want, _, err := plain.Match(newMatcher())
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := wrapped.Match(newMatcher())
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Pairs) != len(want.Pairs) {
					t.Fatalf("%s: %d pairs through the wrapper, %d without", key, len(got.Pairs), len(want.Pairs))
				}
				for i := range want.Pairs {
					if got.Pairs[i] != want.Pairs[i] {
						t.Fatalf("%s: pair %d is %+v through the wrapper, %+v without", key, i, got.Pairs[i], want.Pairs[i])
					}
				}
			}
			if len(rec.spans) != len(sparseKeys) {
				t.Errorf("%d production spans for %d matchers: every sparse matcher builds its graphs through one producer call", len(rec.spans), len(sparseKeys))
			}
			if exhaustive := name == "exact"; exhaustive != (src.passes == len(sparseKeys)) {
				t.Errorf("%d full tile passes counted over %d matchers (exhaustive source: %v)", src.passes, len(sparseKeys), exhaustive)
			}
		})
	}
}
