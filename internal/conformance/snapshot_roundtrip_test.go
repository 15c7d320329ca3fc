package conformance

import (
	"errors"
	"path/filepath"
	"testing"

	"entmatcher"
	"entmatcher/internal/datagen"
	"entmatcher/internal/matrix"
	"entmatcher/internal/snapshot"
)

// The snapshot contract is the same one that pins sparse and ANN to dense:
// serving from a loaded snapshot is an implementation detail, not an
// approximation. These tests prove it end to end through the public
// pipeline — prepared tables, candidate graphs, and matcher results from a
// loaded snapshot must be bit-identical to a fresh preparation, not merely
// close.

func roundTripDataset(t *testing.T) *entmatcher.Dataset {
	t.Helper()
	d, err := datagen.GenerateSplit(datagen.DBP15KZhEn.Scaled(0.01), 0.2, 0.1)
	if err != nil {
		t.Fatalf("generating dataset: %v", err)
	}
	return d
}

func roundTripConfig() entmatcher.PipelineConfig {
	return entmatcher.PipelineConfig{
		CandidateBudget: 16,
		ANN:             &entmatcher.ANNConfig{Clusters: 8, NProbe: 8},
	}
}

// prepareFreshAndLoaded runs the same configuration three ways — fresh,
// fresh-with-save, loaded-from-the-save — and returns the fresh and loaded
// runs.
func prepareFreshAndLoaded(t *testing.T, d *entmatcher.Dataset, cfg entmatcher.PipelineConfig) (fresh, loaded *entmatcher.Run) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prep.snap")

	saveCfg := cfg
	saveCfg.SaveSnapshot = path
	if _, err := entmatcher.NewPipeline(saveCfg).Prepare(d); err != nil {
		t.Fatalf("prepare with save: %v", err)
	}

	fresh, err := entmatcher.NewPipeline(cfg).Prepare(d)
	if err != nil {
		t.Fatalf("fresh prepare: %v", err)
	}

	loadCfg := cfg
	loadCfg.LoadSnapshot = path
	loaded, err = entmatcher.NewPipeline(loadCfg).Prepare(d)
	if err != nil {
		t.Fatalf("prepare from snapshot: %v", err)
	}
	return fresh, loaded
}

func TestSnapshotRoundTripTablesBitIdentical(t *testing.T) {
	d := roundTripDataset(t)
	fresh, loaded := prepareFreshAndLoaded(t, d, roundTripConfig())

	fs, ft := fresh.Stream.PreparedTables()
	ls, lt := loaded.Stream.PreparedTables()
	if !fs.EqualBits(ls) {
		t.Error("loaded source table differs in bits from fresh preparation")
	}
	if !ft.EqualBits(lt) {
		t.Error("loaded target table differs in bits from fresh preparation")
	}
	if len(fresh.Task.SourceIDs) != len(loaded.Task.SourceIDs) {
		t.Fatalf("task shape changed: fresh %d rows, loaded %d", len(fresh.Task.SourceIDs), len(loaded.Task.SourceIDs))
	}
}

// roundTripEngines is the engine axis of the preparation-identity table:
// every producer internal/engine composes.
var roundTripEngines = []struct {
	name string
	cfg  entmatcher.PipelineConfig
}{
	{"exact", entmatcher.PipelineConfig{CandidateBudget: 16}},
	{"ann", roundTripConfig()},
	{"quant", entmatcher.PipelineConfig{CandidateBudget: 16, Quant: &entmatcher.QuantConfig{}}},
	{"ann+quant", entmatcher.PipelineConfig{CandidateBudget: 16, Quant: &entmatcher.QuantConfig{},
		ANN: &entmatcher.ANNConfig{Clusters: 8, NProbe: 8}}},
	{"shards=4", entmatcher.PipelineConfig{CandidateBudget: 16, Shards: 4}},
}

// forEachEngineAndSource prepares every engine fresh and from each other
// table source — a heap-loaded snapshot and the snapshot file served
// out-of-core (mmap, or the ReadAt fallback on the purego leg) — and hands
// check the fresh run with each. Only pairs the configuration layer rejects
// are skipped, plus Quant out-of-core on builds without mmap (the exact
// re-rank needs addressable tables).
func forEachEngineAndSource(t *testing.T, check func(t *testing.T, fresh, other *entmatcher.Run)) {
	d := roundTripDataset(t)
	for _, eng := range roundTripEngines {
		t.Run(eng.name, func(t *testing.T) {
			fresh, loaded := prepareFreshAndLoaded(t, d, eng.cfg)
			t.Run("heap snapshot", func(t *testing.T) { check(t, fresh, loaded) })

			oocCfg := eng.cfg
			oocCfg.LoadSnapshot, oocCfg.OutOfCore = "prep.snap", true
			if err := oocCfg.Validate(); err != nil {
				t.Logf("out-of-core skipped: %v", err)
				return
			}
			if eng.cfg.Quant != nil && !snapshot.MmapSupported {
				t.Log("out-of-core skipped: Quant needs mmap")
				return
			}
			t.Run("out-of-core", func(t *testing.T) { check(t, fresh, prepareOutOfCore(t, d, eng.cfg)) })
		})
	}
}

func TestSnapshotRoundTripCandGraphsBitIdentical(t *testing.T) {
	forEachEngineAndSource(t, func(t *testing.T, fresh, other *entmatcher.Run) {
		for name, run := range map[string]*entmatcher.Run{"fresh": fresh, "other": other} {
			if _, ok := run.Ctx.Stream.(matrix.CandGraphProducer); !ok {
				t.Fatalf("%s run's stream is not a candidate-graph producer", name)
			}
		}
		candGraphsIdentical(t, "forward", producerGraph(t, fresh, 8), producerGraph(t, other, 8))
	})
}

func TestSnapshotRoundTripMatcherResultsIdentical(t *testing.T) {
	forEachEngineAndSource(t, func(t *testing.T, fresh, other *entmatcher.Run) {
		for _, mk := range []struct {
			name string
			make func() entmatcher.Matcher
		}{
			{"DInf", func() entmatcher.Matcher { return entmatcher.NewDInfStream() }},
			{"CSLS", func() entmatcher.Matcher { return entmatcher.NewCSLSSparse(16, 1) }},
			{"RInf", func() entmatcher.Matcher { return entmatcher.NewRInfSparse(16) }},
			{"Sink.", func() entmatcher.Matcher { return entmatcher.NewSinkhornSparse(16, 20) }},
			{"Hun.", func() entmatcher.Matcher { return entmatcher.NewHungarianSparse(16) }},
			{"SMat", func() entmatcher.Matcher { return entmatcher.NewSMatSparse(16) }},
		} {
			fres, fmet, err := fresh.Match(mk.make())
			if err != nil {
				t.Fatalf("%s on fresh run: %v", mk.name, err)
			}
			ores, omet, err := other.Match(mk.make())
			if err != nil {
				t.Fatalf("%s on loaded run: %v", mk.name, err)
			}
			if fmet != omet {
				t.Errorf("%s: metrics differ: fresh %+v, loaded %+v", mk.name, fmet, omet)
			}
			if len(fres.Pairs) != len(ores.Pairs) {
				t.Fatalf("%s: fresh matched %d pairs, loaded %d", mk.name, len(fres.Pairs), len(ores.Pairs))
			}
			for i := range fres.Pairs {
				if fres.Pairs[i] != ores.Pairs[i] {
					// Pair equality includes the float64 score — bit identity,
					// not tolerance.
					t.Fatalf("%s pair %d: fresh %+v, loaded %+v", mk.name, i, fres.Pairs[i], ores.Pairs[i])
				}
			}
		}
	})
}

// TestSnapshotRoundTripWithoutANN pins the exact-sparse path: a snapshot
// without index sections must reproduce the exhaustive candidate build.
func TestSnapshotRoundTripWithoutANN(t *testing.T) {
	d := roundTripDataset(t)
	cfg := entmatcher.PipelineConfig{CandidateBudget: 16}
	fresh, loaded := prepareFreshAndLoaded(t, d, cfg)

	fres, _, err := fresh.Match(entmatcher.NewRInfSparse(16))
	if err != nil {
		t.Fatalf("fresh match: %v", err)
	}
	lres, _, err := loaded.Match(entmatcher.NewRInfSparse(16))
	if err != nil {
		t.Fatalf("loaded match: %v", err)
	}
	if len(fres.Pairs) != len(lres.Pairs) {
		t.Fatalf("fresh matched %d pairs, loaded %d", len(fres.Pairs), len(lres.Pairs))
	}
	for i := range fres.Pairs {
		if fres.Pairs[i] != lres.Pairs[i] {
			t.Fatalf("pair %d: fresh %+v, loaded %+v", i, fres.Pairs[i], lres.Pairs[i])
		}
	}
}

// TestSnapshotRoundTripQuant pins the SQ8 sections end to end through the
// public pipeline: a run served from a loaded quantized snapshot must match
// a fresh quantized preparation bit for bit — with the scan riding the IVF
// index and standalone over the exhaustive quantized source.
func TestSnapshotRoundTripQuant(t *testing.T) {
	d := roundTripDataset(t)
	for name, cfg := range map[string]entmatcher.PipelineConfig{
		"quant-only": {CandidateBudget: 16, Quant: &entmatcher.QuantConfig{}},
		"quant+ann": {CandidateBudget: 16, Quant: &entmatcher.QuantConfig{},
			ANN: &entmatcher.ANNConfig{Clusters: 8, NProbe: 8}},
	} {
		t.Run(name, func(t *testing.T) {
			fresh, loaded := prepareFreshAndLoaded(t, d, cfg)
			fres, fmet, err := fresh.Match(entmatcher.NewRInfSparse(16))
			if err != nil {
				t.Fatalf("fresh match: %v", err)
			}
			lres, lmet, err := loaded.Match(entmatcher.NewRInfSparse(16))
			if err != nil {
				t.Fatalf("loaded match: %v", err)
			}
			if fmet != lmet {
				t.Errorf("metrics differ: fresh %+v, loaded %+v", fmet, lmet)
			}
			if len(fres.Pairs) != len(lres.Pairs) {
				t.Fatalf("fresh matched %d pairs, loaded %d", len(fres.Pairs), len(lres.Pairs))
			}
			for i := range fres.Pairs {
				if fres.Pairs[i] != lres.Pairs[i] {
					t.Fatalf("pair %d: fresh %+v, loaded %+v", i, fres.Pairs[i], lres.Pairs[i])
				}
			}
		})
	}
}

// TestSnapshotLoadRejectsMismatchedConfig is the flag-interaction contract
// at the pipeline layer: a snapshot is never silently rebuilt or
// reinterpreted for a configuration it was not prepared for.
func TestSnapshotLoadRejectsMismatchedConfig(t *testing.T) {
	d := roundTripDataset(t)
	path := filepath.Join(t.TempDir(), "prep.snap")
	saveCfg := roundTripConfig()
	saveCfg.SaveSnapshot = path
	if _, err := entmatcher.NewPipeline(saveCfg).Prepare(d); err != nil {
		t.Fatalf("prepare with save: %v", err)
	}

	foreign, err := datagen.GenerateSplit(datagen.DBP15KZhEn.Scaled(0.01), 0.3, 0.1)
	if err != nil {
		t.Fatalf("generating foreign dataset: %v", err)
	}

	// Rows marked outOfCore also run without the ANN knob (OutOfCore rejects
	// it) from the heap and from the file: the out-of-core load must report
	// the same ErrSnapshotMismatch, word for word.
	for name, tc := range map[string]struct {
		mutate    func(*entmatcher.PipelineConfig)
		data      *entmatcher.Dataset
		outOfCore bool
	}{
		"different features":     {mutate: func(c *entmatcher.PipelineConfig) { c.Features = entmatcher.FeatureName }, outOfCore: true},
		"different setting":      {mutate: func(c *entmatcher.PipelineConfig) { c.Setting = entmatcher.SettingUnmatchable }, outOfCore: true},
		"different metric":       {mutate: func(c *entmatcher.PipelineConfig) { c.ANN = nil; c.Metric = entmatcher.MetricEuclidean }, outOfCore: true},
		"mismatched ANN cluster": {mutate: func(c *entmatcher.PipelineConfig) { c.ANN.Clusters = 13 }},
		"nprobe past clusters":   {mutate: func(c *entmatcher.PipelineConfig) { c.ANN.Clusters = 0; c.ANN.NProbe = 99 }},
		// The snapshot was saved without -quant, so it holds no SQ8 tables;
		// a quantized run must refuse it rather than silently re-encode.
		"quant without SQ8 sections": {mutate: func(c *entmatcher.PipelineConfig) { c.Quant = &entmatcher.QuantConfig{} }, outOfCore: true},
		// A dataset whose test split names other entities than the snapshot's
		// vocabulary.
		"foreign vocabulary": {mutate: func(*entmatcher.PipelineConfig) {}, data: foreign, outOfCore: true},
	} {
		data := d
		if tc.data != nil {
			data = tc.data
		}
		cfg := roundTripConfig()
		cfg.ANN = &entmatcher.ANNConfig{Clusters: 8, NProbe: 8} // own copy per case
		cfg.LoadSnapshot = path
		tc.mutate(&cfg)
		_, err := entmatcher.NewPipeline(cfg).Prepare(data)
		if !errors.Is(err, entmatcher.ErrSnapshotMismatch) {
			t.Errorf("%s: got %v, want ErrSnapshotMismatch", name, err)
		}
		if !tc.outOfCore {
			continue
		}
		if cfg.Quant != nil && !snapshot.MmapSupported {
			continue // refused earlier, for the platform: Quant out-of-core needs mmap
		}
		cfg.ANN = nil
		_, heapErr := entmatcher.NewPipeline(cfg).Prepare(data)
		cfg.OutOfCore = true
		_, oocErr := entmatcher.NewPipeline(cfg).Prepare(data)
		if !errors.Is(oocErr, entmatcher.ErrSnapshotMismatch) {
			t.Errorf("%s out-of-core: got %v, want ErrSnapshotMismatch", name, oocErr)
		} else if heapErr == nil || heapErr.Error() != oocErr.Error() {
			t.Errorf("%s: out-of-core reports %q, heap load %q", name, oocErr, heapErr)
		}
	}
}
