// Package eval scores matching results against gold alignment links and
// builds the evaluation tasks of the paper's three settings: 1-to-1
// (§ 4), unmatchable entities (§ 5.1) and non 1-to-1 alignment (§ 5.2).
//
// A Task fixes the row space (source entities to align) and the column
// space (candidate target entities) of the similarity matrix, plus the gold
// pairs in that local index space. Matchers never see entity IDs — only
// matrix indices — so the task is the boundary between the KG world and the
// matching world.
package eval

import (
	"fmt"
	"slices"
	"sort"

	"entmatcher/internal/core"
	"entmatcher/internal/kg"
)

// Metrics is the paper's evaluation triple. Under the 1-to-1 setting every
// method emits one prediction per source, so precision = recall = F1; under
// the unmatchable and non 1-to-1 settings they diverge.
type Metrics struct {
	Precision float64
	Recall    float64
	F1        float64
	// Correct and Predicted support debugging and aggregation.
	Correct   int
	Predicted int
	Gold      int
}

// String formats the metrics compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f (%d/%d predicted, %d gold)",
		m.Precision, m.Recall, m.F1, m.Correct, m.Predicted, m.Gold)
}

// Score compares predicted pairs against gold pairs (both in the same index
// space). Duplicate predictions of the same pair are counted once, and so
// are duplicate gold pairs. Both lists are walked in (Source, Target) order:
// matchers emit their pairs in it and the tasks their gold, and a list that
// is not is sorted in a copy.
func Score(predicted []core.Pair, gold []core.Pair) Metrics {
	pred, ref := byPair(predicted), byPair(gold)
	correct, distinct, y := 0, 0, 0
	for x := range pred {
		if x > 0 && samePair(pred[x-1], pred[x]) {
			continue
		}
		distinct++
		for y < len(ref) && pairLess(ref[y], pred[x]) {
			y++
		}
		if y < len(ref) && samePair(ref[y], pred[x]) {
			correct++
		}
	}
	goldN := 0
	for y := range ref {
		if y == 0 || !samePair(ref[y-1], ref[y]) {
			goldN++
		}
	}
	m := Metrics{Correct: correct, Predicted: distinct, Gold: goldN}
	if distinct > 0 {
		m.Precision = float64(correct) / float64(distinct)
	}
	if goldN > 0 {
		m.Recall = float64(correct) / float64(goldN)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// pairLess orders pairs by (Source, Target), the order Score walks in; it
// ignores Score.
func pairLess(a, b core.Pair) bool {
	return a.Source < b.Source || (a.Source == b.Source && a.Target < b.Target)
}

// samePair reports whether a and b link the same two entities.
func samePair(a, b core.Pair) bool { return a.Source == b.Source && a.Target == b.Target }

// byPair returns pairs in pairLess order: pairs itself when it is, else a
// sorted copy.
func byPair(pairs []core.Pair) []core.Pair {
	for x := 1; x < len(pairs); x++ {
		if pairLess(pairs[x], pairs[x-1]) {
			pairs = slices.Clone(pairs)
			slices.SortFunc(pairs, func(a, b core.Pair) int {
				if pairLess(a, b) {
					return -1
				}
				if pairLess(b, a) {
					return 1
				}
				return 0
			})
			break
		}
	}
	return pairs
}

// Task is one alignment problem: align SourceIDs (rows) against TargetIDs
// (columns) and compare with Gold, which is expressed in local (row, col)
// indices.
type Task struct {
	Name      string
	SourceIDs []int // graph entity IDs per matrix row
	TargetIDs []int // graph entity IDs per matrix column
	Gold      []core.Pair
}

// dedupSorted returns the sorted distinct values of ids.
func dedupSorted(ids []int) []int {
	seen := make(map[int]bool, len(ids))
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// indexOf builds the value -> position map of ids.
func indexOf(ids []int) map[int]int {
	out := make(map[int]int, len(ids))
	for i, id := range ids {
		out[id] = i
	}
	return out
}

// OneToOneTask builds the paper's main evaluation task from a 1-to-1
// dataset: rows are the test-link sources, columns the test-link targets,
// and the gold pairs are the test links. Every row has exactly one gold
// column and vice versa.
func OneToOneTask(pair *kg.Pair) (*Task, error) {
	test := pair.Split.Test
	if test.Len() == 0 {
		return nil, fmt.Errorf("eval: dataset %q has no test links", pair.Name)
	}
	if !test.IsOneToOne() {
		return nil, fmt.Errorf("eval: dataset %q test links are not 1-to-1", pair.Name)
	}
	srcIDs := make([]int, test.Len())
	tgtIDs := make([]int, test.Len())
	gold := make([]core.Pair, test.Len())
	for i, l := range test.Links {
		srcIDs[i] = l.Source
		tgtIDs[i] = l.Target
		gold[i] = core.Pair{Source: i, Target: i}
	}
	return &Task{Name: pair.Name, SourceIDs: srcIDs, TargetIDs: tgtIDs, Gold: gold}, nil
}

// UnmatchableTask builds the § 5.1 task: the row space is the test-link
// sources plus every source entity that participates in no gold link at all
// (the unmatchable entities of DBP15K+); symmetrically for columns. Gold
// pairs remain only the test links, so matching an unmatchable entity costs
// precision.
func UnmatchableTask(pair *kg.Pair) (*Task, error) {
	base, err := OneToOneTask(pair)
	if err != nil {
		return nil, err
	}
	all := pair.AllLinks()
	linkedSrc := all.SourceSet()
	linkedTgt := all.TargetSet()
	srcIDs := base.SourceIDs
	for id := 0; id < pair.Source.NumEntities(); id++ {
		if !linkedSrc[id] {
			srcIDs = append(srcIDs, id)
		}
	}
	tgtIDs := base.TargetIDs
	for id := 0; id < pair.Target.NumEntities(); id++ {
		if !linkedTgt[id] {
			tgtIDs = append(tgtIDs, id)
		}
	}
	return &Task{Name: pair.Name + "+", SourceIDs: srcIDs, TargetIDs: tgtIDs, Gold: base.Gold}, nil
}

// NonOneToOneTask builds the § 5.2 task: rows are the distinct test-link
// sources, columns the distinct test-link targets, and gold contains every
// test link — several per row or column when the dataset has 1-to-many,
// many-to-1 or many-to-many groups.
func NonOneToOneTask(pair *kg.Pair) (*Task, error) {
	test := pair.Split.Test
	if test.Len() == 0 {
		return nil, fmt.Errorf("eval: dataset %q has no test links", pair.Name)
	}
	var srcRaw, tgtRaw []int
	for _, l := range test.Links {
		srcRaw = append(srcRaw, l.Source)
		tgtRaw = append(tgtRaw, l.Target)
	}
	srcIDs := dedupSorted(srcRaw)
	tgtIDs := dedupSorted(tgtRaw)
	srcIdx := indexOf(srcIDs)
	tgtIdx := indexOf(tgtIDs)
	gold := make([]core.Pair, test.Len())
	for i, l := range test.Links {
		gold[i] = core.Pair{Source: srcIdx[l.Source], Target: tgtIdx[l.Target]}
	}
	return &Task{Name: pair.Name, SourceIDs: srcIDs, TargetIDs: tgtIDs, Gold: gold}, nil
}

// ValidationTaskFor builds the matcher-tuning task from the validation
// split, in its own local index space (used by the RL matcher).
func ValidationTaskFor(pair *kg.Pair) (*Task, error) {
	valid := pair.Split.Valid
	if valid.Len() == 0 {
		return nil, fmt.Errorf("eval: dataset %q has no validation links", pair.Name)
	}
	srcIDs := make([]int, valid.Len())
	tgtIDs := make([]int, valid.Len())
	gold := make([]core.Pair, valid.Len())
	for i, l := range valid.Links {
		srcIDs[i] = l.Source
		tgtIDs[i] = l.Target
		gold[i] = core.Pair{Source: i, Target: i}
	}
	return &Task{Name: pair.Name + "-valid", SourceIDs: srcIDs, TargetIDs: tgtIDs, Gold: gold}, nil
}

// LocalAdjacency projects a graph's adjacency onto the task's index space:
// out[i] lists the positions (within ids) of the KG-neighbors of ids[i]
// that are themselves in ids. Used by the RL matcher's coherence term.
func LocalAdjacency(g *kg.Graph, ids []int) [][]int {
	pos := indexOf(ids)
	out := make([][]int, len(ids))
	for i, id := range ids {
		for _, e := range g.Neighbors(id) {
			if p, ok := pos[e.Neighbor]; ok {
				out[i] = append(out[i], p)
			}
		}
	}
	return out
}

// Evaluate scores a matcher result against the task's gold pairs.
func (t *Task) Evaluate(res *core.Result) Metrics {
	return Score(res.Pairs, t.Gold)
}

// HitsAtK returns, for a 1-to-1 gold mapping, the fraction of rows whose
// gold column appears among the row's k highest scores, and the mean
// reciprocal rank of the gold column. Rows without a gold column are
// skipped. These are the Hits@k / MRR metrics of the wider EA literature
// (the paper's recall equals Hits@1).
func HitsAtK(s interface {
	Rows() int
	Cols() int
	Row(int) []float64
}, gold []core.Pair, k int) (hits float64, mrr float64) {
	goldOf := make(map[int]int, len(gold))
	for _, g := range gold {
		goldOf[g.Source] = g.Target
	}
	if len(goldOf) == 0 {
		return 0, 0
	}
	var hit, count int
	var rr float64
	for i := 0; i < s.Rows(); i++ {
		gj, ok := goldOf[i]
		if !ok {
			continue
		}
		count++
		row := s.Row(i)
		goldScore := row[gj]
		rank := 1
		for j, v := range row {
			if v > goldScore || (v == goldScore && j < gj) {
				rank++
			}
		}
		if rank <= k {
			hit++
		}
		rr += 1 / float64(rank)
	}
	if count == 0 {
		return 0, 0
	}
	return float64(hit) / float64(count), rr / float64(count)
}
