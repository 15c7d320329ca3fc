package core

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"entmatcher/internal/matrix"
	"entmatcher/internal/sim"
)

// memoChecksum hashes every byte the memo hands out for the budgets the
// five sparse twins below ask for: forward and reverse graph rows (column
// ids and score bits) and the column means. The three calls are hits once
// the parts are built, so hashing does not disturb the memo.
func memoChecksum(t *testing.T, memo *matrix.GraphMemo, c, k int) uint64 {
	t.Helper()
	ctx := context.Background()
	fwd, rev, err := memo.ProduceCandGraphs(ctx, c, c)
	if err != nil {
		t.Fatal(err)
	}
	_, means, err := memo.ProduceCandGraphWithColMeans(ctx, c, k)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, g := range []*matrix.CandGraph{fwd, rev} {
		for i := 0; i < g.Rows(); i++ {
			cols, scores := g.Row(i)
			put(uint64(len(cols)))
			for x := range cols {
				put(uint64(cols[x]))
				put(math.Float64bits(scores[x]))
			}
		}
	}
	for _, v := range means {
		put(math.Float64bits(v))
	}
	return h.Sum64()
}

func memoTestTwins(c, k int) []Matcher {
	return []Matcher{NewRInfSparse(c), NewCSLSSparse(c, k), NewHungarianSparse(c), NewSMatSparse(c), NewSinkhornSparse(c, 5)}
}

// TestMemoPartsUnchangedByMatchers enforces the read-only contract on shared
// graphs: the memoized parts are byte-identical before and after every
// sparse matcher, on a square and on a tall task (the tall one routes
// Hungarian through the reverse graph).
func TestMemoPartsUnchangedByMatchers(t *testing.T) {
	const c, k = 6, 3
	for _, shape := range [][2]int{{40, 40}, {48, 31}} {
		rng := rand.New(rand.NewSource(int64(shape[0])))
		st, err := sim.NewStream(randEmbeddings(rng, shape[0], 8), randEmbeddings(rng, shape[1], 8), sim.Cosine, sim.WithTileShape(7, 9))
		if err != nil {
			t.Fatal(err)
		}
		memo := matrix.Memo(st)
		ctx := &Context{Stream: memo}
		want := memoChecksum(t, memo, c, k)
		for round := 0; round < 2; round++ {
			for _, m := range memoTestTwins(c, k) {
				if _, err := m.Match(ctx); err != nil {
					t.Fatalf("%s: %v", m.Name(), err)
				}
				if got := memoChecksum(t, memo, c, k); got != want {
					t.Fatalf("%dx%d: %s mutated a memoized part (checksum %x, was %x)", shape[0], shape[1], m.Name(), got, want)
				}
			}
		}
		if st := memo.Stats(); st.Builds != 2 {
			t.Fatalf("%dx%d: %d builds, want 2 (forward+reverse, then means)", shape[0], shape[1], st.Builds)
		}
	}
}

// failAfter runs its matcher to completion and then reports a failure, the
// shape of a tier that exhausts its budget after building its graphs.
type failAfter struct{ Matcher }

func (f failAfter) Match(ctx *Context) (*Result, error) {
	if _, err := f.Matcher.Match(ctx); err != nil {
		return nil, err
	}
	return nil, errors.New("tier failed after building its graphs")
}

// TestMemoFallbackTierReusesGraph: when a Fallback tier degrades, the next
// tier is served the graph its predecessor built instead of streaming the
// tables again.
func TestMemoFallbackTierReusesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st, err := sim.NewStream(randEmbeddings(rng, 30, 8), randEmbeddings(rng, 30, 8), sim.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	memo := matrix.Memo(st)
	chain := NewFallback(time.Minute, failAfter{NewHungarianSparse(5)}, NewSMatSparse(5))
	res, err := chain.Match(&Context{Stream: memo})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matcher != "SMat-sparse" || len(res.DegradedFrom) != 1 {
		t.Fatalf("answered by %s, degraded from %v", res.Matcher, res.DegradedFrom)
	}
	if st := memo.Stats(); st.Builds != 1 || st.Hits != 1 || st.Passes != 1 {
		t.Fatalf("stats %+v, want one build, one hit, one tile pass", st)
	}
}
