package eval

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"entmatcher/internal/core"
	"entmatcher/internal/datagen"
	"entmatcher/internal/kg"
	"entmatcher/internal/matrix"
)

func TestScorePerfect(t *testing.T) {
	gold := []core.Pair{{Source: 0, Target: 0}, {Source: 1, Target: 1}}
	m := Score(gold, gold)
	if m.Precision != 1 || m.Recall != 1 || m.F1 != 1 {
		t.Fatalf("perfect prediction scored %v", m)
	}
}

func TestScorePartial(t *testing.T) {
	gold := []core.Pair{{Source: 0, Target: 0}, {Source: 1, Target: 1}, {Source: 2, Target: 2}, {Source: 3, Target: 3}}
	pred := []core.Pair{{Source: 0, Target: 0}, {Source: 1, Target: 9}}
	m := Score(pred, gold)
	if m.Precision != 0.5 {
		t.Fatalf("precision = %v", m.Precision)
	}
	if m.Recall != 0.25 {
		t.Fatalf("recall = %v", m.Recall)
	}
	wantF1 := 2 * 0.5 * 0.25 / 0.75
	if math.Abs(m.F1-wantF1) > 1e-12 {
		t.Fatalf("F1 = %v, want %v", m.F1, wantF1)
	}
}

func TestScoreDuplicatePredictionsCountOnce(t *testing.T) {
	gold := []core.Pair{{Source: 0, Target: 0}}
	pred := []core.Pair{{Source: 0, Target: 0}, {Source: 0, Target: 0}}
	m := Score(pred, gold)
	if m.Predicted != 1 || m.Precision != 1 {
		t.Fatalf("duplicates mishandled: %v", m)
	}
}

func TestScoreEmpty(t *testing.T) {
	m := Score(nil, nil)
	if m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Fatalf("empty score = %v", m)
	}
}

// refScore is Score before the merge walk: two hash sets.
func refScore(predicted []core.Pair, gold []core.Pair) Metrics {
	goldSet := make(map[[2]int]bool, len(gold))
	for _, g := range gold {
		goldSet[[2]int{g.Source, g.Target}] = true
	}
	seen := make(map[[2]int]bool, len(predicted))
	correct := 0
	distinct := 0
	for _, p := range predicted {
		key := [2]int{p.Source, p.Target}
		if seen[key] {
			continue
		}
		seen[key] = true
		distinct++
		if goldSet[key] {
			correct++
		}
	}
	m := Metrics{Correct: correct, Predicted: distinct, Gold: len(goldSet)}
	if distinct > 0 {
		m.Precision = float64(correct) / float64(distinct)
	}
	if len(goldSet) > 0 {
		m.Recall = float64(correct) / float64(len(goldSet))
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// pairsFrom decodes two bytes per pair: a source and a target in [-3, 12],
// so small inputs are full of duplicates, shared pairs and negative indices.
// Score values vary too; Score must ignore them.
func pairsFrom(data []byte) []core.Pair {
	pairs := make([]core.Pair, 0, len(data)/2)
	for x := 0; x+1 < len(data); x += 2 {
		pairs = append(pairs, core.Pair{Source: int(data[x]%16) - 3, Target: int(data[x+1]%16) - 3, Score: float64(data[x])})
	}
	return pairs
}

// TestScoreMatchesMapReference holds Score to the hash-set body on every
// input shape: sorted, unsorted and reversed lists, duplicates on either
// side, negative indices, empty and nil lists — and leaves its inputs as they
// were.
func TestScoreMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lists := [][]core.Pair{nil, {}, {{Source: -1, Target: -2}}}
	for _, n := range []int{1, 2, 5, 40, 300} {
		for _, span := range []int{2, 8, 1000} {
			pairs := make([]core.Pair, n)
			for x := range pairs {
				pairs[x] = core.Pair{Source: rng.Intn(span) - span/4, Target: rng.Intn(span) - span/4, Score: rng.Float64()}
			}
			sorted := byPair(pairs)
			reversed := slices.Clone(sorted)
			slices.Reverse(reversed)
			lists = append(lists, pairs, sorted, reversed, slices.CompactFunc(slices.Clone(sorted), samePair))
		}
	}
	for a, pred := range lists {
		for b, gold := range lists {
			pIn, gIn := slices.Clone(pred), slices.Clone(gold)
			if got, want := Score(pred, gold), refScore(pred, gold); got != want {
				t.Fatalf("lists %d, %d: Score = %+v, reference %+v", a, b, got, want)
			}
			if !slices.Equal(pred, pIn) || !slices.Equal(gold, gIn) {
				t.Fatalf("lists %d, %d: Score modified its input", a, b)
			}
		}
	}
}

// FuzzScore holds Score to the hash-set body on arbitrary pair lists.
func FuzzScore(f *testing.F) {
	f.Add([]byte{1, 1, 2, 2, 1, 1}, []byte{1, 1, 3, 3})
	f.Add([]byte{9, 0, 0, 9, 0, 0}, []byte{0, 0, 0, 0, 9, 0})
	f.Add([]byte{}, []byte{0, 1})
	f.Fuzz(func(t *testing.T, p, g []byte) {
		pred, gold := pairsFrom(p), pairsFrom(g)
		if got, want := Score(pred, gold), refScore(pred, gold); got != want {
			t.Fatalf("Score(%v, %v) = %+v, reference %+v", pred, gold, got, want)
		}
	})
}

// BenchmarkScore scores a one-pair-per-row answer against 1-to-1 gold at
// paper_dense's task size (2 100) and sparse_exact's (5 600), by Score and by
// the hash-set body it replaced.
func BenchmarkScore(b *testing.B) {
	for _, n := range []int{2100, 5600} {
		rng := rand.New(rand.NewSource(1))
		pred, gold := make([]core.Pair, n), make([]core.Pair, n)
		for i := range gold {
			gold[i] = core.Pair{Source: i, Target: i}
			pred[i] = core.Pair{Source: i, Target: i, Score: rng.Float64()}
			if rng.Intn(5) == 0 {
				pred[i].Target = rng.Intn(n)
			}
		}
		for _, sc := range []struct {
			name  string
			score func(p, g []core.Pair) Metrics
		}{{"merge", Score}, {"map", refScore}} {
			b.Run(fmt.Sprintf("%s/%d", sc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sc.score(pred, gold)
				}
			})
		}
	}
}

func TestMetricsString(t *testing.T) {
	m := Score([]core.Pair{{Source: 0, Target: 0}}, []core.Pair{{Source: 0, Target: 0}})
	if m.String() == "" {
		t.Fatal("empty String()")
	}
}

func onePair(t *testing.T) *kg.Pair {
	t.Helper()
	pair, err := datagen.Generate(datagen.DBP15KZhEn.Scaled(0.02))
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

func TestOneToOneTaskShape(t *testing.T) {
	pair := onePair(t)
	task, err := OneToOneTask(pair)
	if err != nil {
		t.Fatal(err)
	}
	n := pair.Split.Test.Len()
	if len(task.SourceIDs) != n || len(task.TargetIDs) != n || len(task.Gold) != n {
		t.Fatalf("task sizes %d/%d/%d, want %d", len(task.SourceIDs), len(task.TargetIDs), len(task.Gold), n)
	}
	for i, g := range task.Gold {
		if g.Source != i || g.Target != i {
			t.Fatalf("gold %d = %+v, want diagonal", i, g)
		}
	}
}

func TestOneToOneTaskRequiresTestLinks(t *testing.T) {
	pair := onePair(t)
	pair.Split.Test.Links = nil
	if _, err := OneToOneTask(pair); err == nil {
		t.Fatal("empty test set accepted")
	}
}

func TestOneToOneTaskRejectsMultiLinks(t *testing.T) {
	pair := onePair(t)
	l := pair.Split.Test.Links[0]
	pair.Split.Test.Add(l.Source, l.Target+1)
	if _, err := OneToOneTask(pair); err == nil {
		t.Fatal("non 1-to-1 test set accepted")
	}
}

func TestUnmatchableTaskIncludesExtras(t *testing.T) {
	pair := onePair(t)
	task, err := UnmatchableTask(pair)
	if err != nil {
		t.Fatal(err)
	}
	nTest := pair.Split.Test.Len()
	prof := datagen.DBP15KZhEn.Scaled(0.02)
	wantRows := nTest + prof.ExtraSource
	if len(task.SourceIDs) != wantRows {
		t.Fatalf("rows = %d, want %d", len(task.SourceIDs), wantRows)
	}
	if len(task.TargetIDs) != nTest+prof.ExtraTarget {
		t.Fatalf("cols = %d", len(task.TargetIDs))
	}
	// Gold unchanged: only the test links.
	if len(task.Gold) != nTest {
		t.Fatalf("gold = %d", len(task.Gold))
	}
	// Every appended row must be an unlinked entity.
	linked := pair.AllLinks().SourceSet()
	for _, id := range task.SourceIDs[nTest:] {
		if linked[id] {
			t.Fatalf("linked entity %d treated as unmatchable", id)
		}
	}
}

func TestNonOneToOneTask(t *testing.T) {
	pair, err := datagen.GenerateNonOneToOne(datagen.FBDBPMul.Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	task, err := NonOneToOneTask(pair)
	if err != nil {
		t.Fatal(err)
	}
	if len(task.Gold) != pair.Split.Test.Len() {
		t.Fatalf("gold %d, want %d", len(task.Gold), pair.Split.Test.Len())
	}
	// Distinct rows ≤ gold links (duplicates collapse).
	if len(task.SourceIDs) > len(task.Gold) {
		t.Fatalf("rows %d exceed links %d", len(task.SourceIDs), len(task.Gold))
	}
	// All gold indices must be in range.
	for _, g := range task.Gold {
		if g.Source < 0 || g.Source >= len(task.SourceIDs) || g.Target < 0 || g.Target >= len(task.TargetIDs) {
			t.Fatalf("gold out of range: %+v", g)
		}
	}
	// Some row must own several gold columns.
	perRow := make(map[int]int)
	multi := false
	for _, g := range task.Gold {
		perRow[g.Source]++
		if perRow[g.Source] > 1 {
			multi = true
		}
	}
	if !multi {
		t.Fatal("no 1-to-many gold rows in non 1-to-1 task")
	}
}

func TestValidationTaskFor(t *testing.T) {
	pair := onePair(t)
	task, err := ValidationTaskFor(pair)
	if err != nil {
		t.Fatal(err)
	}
	if len(task.SourceIDs) != pair.Split.Valid.Len() {
		t.Fatalf("validation rows = %d", len(task.SourceIDs))
	}
	pair.Split.Valid.Links = nil
	if _, err := ValidationTaskFor(pair); err == nil {
		t.Fatal("empty validation set accepted")
	}
}

func TestLocalAdjacency(t *testing.T) {
	g := kg.NewGraph("g")
	g.AddTripleNames("a", "r", "b")
	g.AddTripleNames("b", "r", "c")
	a, _ := g.EntityID("a")
	b, _ := g.EntityID("b")
	c, _ := g.EntityID("c")
	adj := LocalAdjacency(g, []int{a, c})
	// a's only neighbor is b, which is not in the task → empty.
	if len(adj[0]) != 0 || len(adj[1]) != 0 {
		t.Fatalf("adjacency leaked out-of-task entities: %v", adj)
	}
	adj2 := LocalAdjacency(g, []int{a, b, c})
	if len(adj2[1]) != 2 {
		t.Fatalf("b should neighbor both a and c: %v", adj2)
	}
	_ = b
}

func TestTaskEvaluate(t *testing.T) {
	task := &Task{Gold: []core.Pair{{Source: 0, Target: 0}}}
	res := &core.Result{Pairs: []core.Pair{{Source: 0, Target: 0}}}
	if m := task.Evaluate(res); m.F1 != 1 {
		t.Fatalf("F1 = %v", m.F1)
	}
}

func TestHitsAtK(t *testing.T) {
	s, _ := matrix.NewFromData(2, 3, []float64{
		0.9, 0.5, 0.1, // gold col 1 → rank 2
		0.2, 0.3, 0.8, // gold col 2 → rank 1
	})
	gold := []core.Pair{{Source: 0, Target: 1}, {Source: 1, Target: 2}}
	h1, mrr := HitsAtK(s, gold, 1)
	if h1 != 0.5 {
		t.Fatalf("Hits@1 = %v", h1)
	}
	if math.Abs(mrr-0.75) > 1e-12 {
		t.Fatalf("MRR = %v, want 0.75", mrr)
	}
	h2, _ := HitsAtK(s, gold, 2)
	if h2 != 1 {
		t.Fatalf("Hits@2 = %v", h2)
	}
}

func TestHitsAtKEmptyGold(t *testing.T) {
	s := matrix.New(2, 2)
	h, mrr := HitsAtK(s, nil, 1)
	if h != 0 || mrr != 0 {
		t.Fatalf("empty gold: %v %v", h, mrr)
	}
}
