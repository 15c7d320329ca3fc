package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"entmatcher"
	"entmatcher/internal/datagen"
)

// scale fixes the input sizes. The reference sizes are frozen in
// BENCHMARK.json's workload rationales; tiny exists for the smoke test.
type scale struct {
	name string
	// dz and dw are the datagen scale factors of the D-Z and D-W profiles.
	dz, dw float64
}

var scales = map[string]scale{
	"ref":  {"ref", 0.2, 0.08},
	"tiny": {"tiny", 0.03, 0.012},
}

const (
	srcVecFile = "src.vec"
	tgtVecFile = "tgt.vec"
	plainSnap  = "plain.snap"
	serveSnap  = "serve.snap"
	// candBudget is the sparse matchers' top-C width on every sparse workload.
	candBudget = 64
)

// sparseBase is the pipeline configuration every sparse engine variant and
// both snapshots start from.
func sparseBase() entmatcher.PipelineConfig {
	return entmatcher.PipelineConfig{Features: entmatcher.FeatureName, CandidateBudget: candBudget}
}

// profileFor returns the dataset profile a workload runs on. The benchmark
// seed replaces the profile's own, so each seed is a different KG pair of the
// same statistical shape.
func profileFor(workload string, sc scale, seed int64) datagen.Profile {
	var p datagen.Profile
	if workload == wlPaperDense {
		p = datagen.DBP15KZhEn.Scaled(sc.dz)
	} else {
		p = datagen.DWY100KDbpWd.Scaled(sc.dw)
	}
	p.Seed = p.Seed*1_000_003 + seed
	return p
}

// setupTimes is what one set-up spent per layer; it feeds the traced run's
// datagen.*, embed.encode_* and snapshot.write_s/bytes metrics.
type setupTimes struct {
	total                             time.Duration
	generate, encodeRREA, encodeNames time.Duration
	snapshotBytes                     int64
}

// setupWorkload writes everything the workload's timed region reads — the
// dataset, the embedding files and, where the workload loads one, a snapshot —
// into dir.
func setupWorkload(workload string, sc scale, seed int64, dir string) (setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	tg := time.Now()
	d, err := datagen.Generate(profileFor(workload, sc, seed))
	if err != nil {
		return st, fmt.Errorf("generate: %w", err)
	}
	st.generate = time.Since(tg)
	if err := entmatcher.SaveDataset(dir, d); err != nil {
		return st, fmt.Errorf("save dataset: %w", err)
	}
	var emb *entmatcher.Embeddings
	te := time.Now()
	if workload == wlPaperDense {
		emb, err = entmatcher.EncodeStructure(d, entmatcher.ModelRREA)
		st.encodeRREA = time.Since(te)
	} else {
		emb, err = entmatcher.EncodeNames(d)
		st.encodeNames = time.Since(te)
	}
	if err != nil {
		return st, fmt.Errorf("encode: %w", err)
	}
	if err := entmatcher.SaveEmbeddings(filepath.Join(dir, srcVecFile), filepath.Join(dir, tgtVecFile), d, emb); err != nil {
		return st, fmt.Errorf("save embeddings: %w", err)
	}
	snap := ""
	cfg := sparseBase()
	switch workload {
	case wlSparseIndexed:
		snap = plainSnap
	case wlServeMixed:
		snap = serveSnap
		cfg.ANN = &entmatcher.ANNConfig{Seed: 1}
		cfg.Quant = &entmatcher.QuantConfig{}
	}
	if snap != "" {
		cfg.SaveSnapshot = filepath.Join(dir, snap)
		run, err := entmatcher.NewPipeline(cfg).PrepareWithEmbeddings(d, emb)
		if err != nil {
			return st, fmt.Errorf("save %s: %w", snap, err)
		}
		if err := run.Close(); err != nil {
			return st, err
		}
		fi, err := os.Stat(cfg.SaveSnapshot)
		if err != nil {
			return st, err
		}
		st.snapshotBytes = fi.Size()
	}
	st.total = time.Since(t0)
	return st, nil
}
