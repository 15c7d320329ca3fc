package entmatcher_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"entmatcher"
	"entmatcher/internal/matrix"
	"entmatcher/internal/shard"
	"entmatcher/internal/sim"
	"entmatcher/internal/snapshot"
)

// alignedEmbeddings builds the 1M-scale synthetic alignment task: source
// rows are unit-normalized Gaussians and target row i is source row i plus
// bounded Gaussian noise, re-normalized — so ground truth is the identity
// permutation and Hits@1 is directly measurable without a dataset.
func alignedEmbeddings(n, d int, noise float64, seed int64) (src, tgt *matrix.Dense) {
	rng := rand.New(rand.NewSource(seed))
	src, tgt = matrix.New(n, d), matrix.New(n, d)
	srow, trow := src.Data(), tgt.Data()
	for i := 0; i < n; i++ {
		s, t := srow[i*d:(i+1)*d], trow[i*d:(i+1)*d]
		var sn, tn float64
		for j := range s {
			s[j] = rng.NormFloat64()
			t[j] = s[j] + noise*rng.NormFloat64()
			sn += s[j] * s[j]
			tn += t[j] * t[j]
		}
		sn, tn = 1/math.Sqrt(sn), 1/math.Sqrt(tn)
		for j := range s {
			s[j] *= sn
			t[j] *= tn
		}
	}
	return src, tgt
}

// TestShardedOutOfCore1M is the out-of-core acceptance test: a 1M×1M
// alignment at d=16 through the IVF-sharded matcher, with both embedding
// tables served from a snapshot file (mmapped where the platform allows,
// chunked ReadAt windows elsewhere) rather than resident slabs, must
// complete within a 4 GiB peak heap. The unsharded dense engine would need
// an 8 TB score matrix; even the in-RAM streaming engine would hold both
// 128 MiB tables plus full-width candidate state. The measurement (wall,
// peak, Hits@1) is logged, not written anywhere: plan.Defaults'
// ShardCalibMult was taken from one such run. The run takes several
// CPU-minutes, so it is gated like the other large tests:
//
//	ENTMATCHER_LARGE=1 go test -run TestShardedOutOfCore1M -v .
func TestShardedOutOfCore1M(t *testing.T) {
	if os.Getenv("ENTMATCHER_LARGE") == "" {
		t.Skip("set ENTMATCHER_LARGE=1 to run the 1M×1M out-of-core sharded test")
	}
	const (
		n      = 1_000_000
		d      = 16
		shards = 64
		c      = 8
	)
	src, tgt := alignedEmbeddings(n, d, 0.10, 7)
	srcVocab, tgtVocab := make([]string, n), make([]string, n)
	for i := range srcVocab {
		id := strconv.Itoa(i)
		srcVocab[i], tgtVocab[i] = "s/"+id, "t/"+id
	}
	snap := &snapshot.Snapshot{
		Meta: snapshot.Meta{
			Tool:    "entmatcher-test",
			Metric:  uint32(sim.Cosine),
			SrcRows: n, TgtRows: n, Dim: d,
		},
		SrcTable: src, TgtTable: tgt,
		SrcVocab: srcVocab, TgtVocab: tgtVocab,
	}
	path := filepath.Join(t.TempDir(), "1m.snap")
	if err := snap.Write(path); err != nil {
		t.Fatalf("writing 1M snapshot: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Drop every resident copy before the measured phase: from here on the
	// tables exist only in the snapshot file.
	snap, src, tgt = nil, nil, nil
	srcVocab, tgtVocab = nil, nil
	runtime.GC()

	r, err := snapshot.OpenReader(path)
	if err != nil {
		t.Fatalf("opening snapshot reader: %v", err)
	}
	defer r.Close()

	// The same serving policy as the pipeline's out-of-core path: alias the
	// table sections into the address space when the platform can, fall back
	// to chunked ReadAt slab windows when it cannot.
	mode := "mmap"
	var stream *sim.Stream
	srcMap, errSrc := r.MapTable(snapshot.SectionSrcTable)
	tgtMap, errTgt := r.MapTable(snapshot.SectionTgtTable)
	if errSrc == nil && errTgt == nil {
		stream, err = sim.NewStreamPrepared(srcMap, tgtMap, sim.Cosine)
	} else {
		mode = "readat"
		srcSlab, terr := r.Table(snapshot.SectionSrcTable)
		if terr != nil {
			t.Fatal(terr)
		}
		tgtSlab, terr := r.Table(snapshot.SectionTgtTable)
		if terr != nil {
			t.Fatal(terr)
		}
		stream, err = sim.NewStreamOOC(srcSlab, tgtSlab, sim.Cosine)
	}
	if err != nil {
		t.Fatalf("building %s stream: %v", mode, err)
	}
	srcR, tgtR := stream.TableViews()
	shSrc, err := shard.NewSource(stream, srcR, tgtR, sim.Cosine, shard.Config{Shards: shards})
	if err != nil {
		t.Fatalf("building sharded source: %v", err)
	}

	stop := peakHeapSampler()
	start := time.Now()
	res, err := entmatcher.NewRInfSparse(c).Match(&entmatcher.MatchContext{Stream: shSrc})
	elapsed := time.Since(start)
	peak := stop()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Pairs) + len(res.Abstained); got != n {
		t.Fatalf("%d pairs + %d abstentions cover %d rows, want %d",
			len(res.Pairs), len(res.Abstained), got, n)
	}
	hits := 0
	for _, p := range res.Pairs {
		if p.Source == p.Target {
			hits++
		}
	}
	hitsAt1 := float64(hits) / float64(n)

	const limit = 4 << 30
	t.Logf("1M×1M RInfSparse (S=%d, C=%d, %s tables): %v, peak %d MiB, Hits@1 %.3f, %d pairs, snapshot %d MiB on disk (dense matrix would be %d GiB)",
		shards, c, mode, elapsed.Round(time.Second), peak>>20, hitsAt1,
		len(res.Pairs), fi.Size()>>20, stream.MatrixBytes()>>30)
	if peak > limit {
		t.Fatalf("peak memory %d MiB exceeds the 4 GiB budget", peak>>20)
	}
	// The planted alignment is near-perfect under exhaustive search; the
	// sharded engine must keep the bulk of it despite bounded per-shard
	// coverage. A collapse here means co-clustering or reconciliation broke.
	if hitsAt1 < 0.5 {
		t.Fatalf("Hits@1 %.3f collapsed — sharded candidate coverage is broken", hitsAt1)
	}
}
