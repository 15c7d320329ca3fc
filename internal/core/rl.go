package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"entmatcher/internal/matrix"
)

// RLConfig parameterizes the RL-based collective matcher.
type RLConfig struct {
	// Candidates is the number of top-scoring columns considered per row
	// during the sequential decision pass.
	Candidates int
	// ConfidenceMargin is the pre-filter threshold: a mutual-nearest pair
	// whose top-1/top-2 score gap exceeds the margin is accepted before the
	// sequential pass (the preprocessing step of [65] that "filters out
	// confident matched entity pairs and excludes them from the
	// time-consuming RL learning process").
	ConfidenceMargin float64
	// TuneIterations bounds the policy-weight search on the validation
	// task. 0 disables tuning and uses the default weights.
	TuneIterations int
	// PolicyTemperature adds stochasticity to the sequential decisions:
	// candidates are sampled from a softmax over policy scores instead of
	// taken greedily. This models the imperfect neural policy of the
	// original A3C agent; 0 makes decisions deterministic.
	PolicyTemperature float64
	// Seed fixes the stochastic weight search when ctx.Rand is nil.
	Seed int64
}

// DefaultRLConfig returns the calibrated RL configuration.
func DefaultRLConfig() RLConfig {
	return RLConfig{
		Candidates:        8,
		ConfidenceMargin:  0.03,
		TuneIterations:    8,
		PolicyTemperature: 0.015,
		Seed:              11,
	}
}

// rlWeights are the policy parameters of the sequential decision: the mix
// of raw similarity, neighborhood coherence bonus and exclusiveness penalty.
type rlWeights struct {
	Sim       float64
	Coherence float64
	Exclusive float64
}

var defaultRLWeights = rlWeights{Sim: 1.0, Coherence: 0.15, Exclusive: 0.3}

// RL is the reinforcement-learning-style collective matcher (the paper's
// § 3.7, after Zeng et al., ACM TOIS 2021 [65]). EA is cast as a sequence
// decision problem: source entities are visited in decreasing confidence
// order, and each decision is scored by a learned policy combining the
// pairwise score with two collective constraints — coherence (prefer
// targets whose neighbors align with the already-matched neighbors of the
// source) and exclusiveness (penalize, but do not forbid, re-using an
// already-matched target, hence "partially" 1-to-1 in Table 2).
//
// Substitution note (DESIGN.md § 2): the original work trains an A3C
// network; this implementation keeps the identical decision structure and
// replaces the neural policy with three interpretable weights tuned by
// stochastic hill-climbing on the validation task, which reproduces the
// behaviours the paper measures: unidirectional decisions, relaxed 1-to-1,
// preprocessing-dependent runtime, and high time cost.
type RL struct {
	Config RLConfig
}

// NewRL returns an RL matcher with the given configuration.
func NewRL(cfg RLConfig) *RL { return &RL{Config: cfg} }

// Name returns "RL".
func (*RL) Name() string { return "RL" }

// Match runs preprocessing, optional policy tuning, and the sequential
// decision pass.
func (m *RL) Match(ctx *Context) (*Result, error) {
	if ctx == nil || ctx.S == nil {
		return nil, ErrNoMatrix
	}
	if m.Config.Candidates < 1 {
		return nil, fmt.Errorf("RL: candidate count must be positive, got %d", m.Config.Candidates)
	}
	start := time.Now()
	cc := ctx.Cancellation()
	rng := ctx.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(m.Config.Seed))
	}

	weights := defaultRLWeights
	if ctx.Valid != nil && m.Config.TuneIterations > 0 {
		var err error
		weights, err = m.tuneWeights(cc, ctx.Valid, rng)
		if err != nil {
			return nil, err
		}
	}

	pairs, abstained, err := m.decide(cc, ctx.S, ctx.SourceAdj, ctx.TargetAdj, ctx.NumDummies, weights, rng)
	if err != nil {
		return nil, err
	}
	rows, cols := ctx.S.Rows(), ctx.S.Cols()
	return &Result{
		Matcher:   m.Name(),
		Pairs:     pairs,
		Abstained: abstained,
		Elapsed:   time.Since(start),
		// Top-k candidate lists plus occupancy and match bookkeeping.
		ExtraBytes: int64(rows)*int64(m.Config.Candidates)*24 + int64(rows+cols)*16,
	}, nil
}

// tuneWeights hill-climbs the policy weights on the validation task,
// maximizing the fraction of gold pairs recovered. Cancellation is checked
// once per tuning epoch (each epoch is one full decision pass on the
// validation matrix).
func (m *RL) tuneWeights(cc context.Context, valid *ValidationTask, rng *rand.Rand) (rlWeights, error) {
	gold := make(map[int]int, len(valid.Gold))
	for _, p := range valid.Gold {
		gold[p.Source] = p.Target
	}
	score := func(w rlWeights) (float64, error) {
		pairs, _, err := m.decide(cc, valid.S, valid.SourceAdj, valid.TargetAdj, 0, w, rng)
		if err != nil {
			return 0, err
		}
		hits := 0
		for _, p := range pairs {
			if gold[p.Source] == p.Target {
				hits++
			}
		}
		return float64(hits), nil
	}
	best := defaultRLWeights
	bestScore, err := score(best)
	if err != nil {
		return best, err
	}
	cur := best
	for it := 0; it < m.Config.TuneIterations; it++ {
		if err := ctxErr(cc); err != nil {
			return best, err
		}
		cand := rlWeights{
			Sim:       clampPos(cur.Sim + rng.NormFloat64()*0.2),
			Coherence: clampPos(cur.Coherence + rng.NormFloat64()*0.15),
			Exclusive: clampPos(cur.Exclusive + rng.NormFloat64()*0.15),
		}
		s, err := score(cand)
		if err != nil {
			return best, err
		}
		if s > bestScore {
			best, bestScore = cand, s
			cur = cand
		} else if rng.Float64() < 0.3 {
			cur = cand // occasional exploration
		}
	}
	return best, nil
}

func clampPos(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// decide runs the sequential decision pass, checking cc every
// checkRowStride row decisions.
func (m *RL) decide(cc context.Context, s *matrix.Dense, srcAdj, tgtAdj [][]int, numDummies int, w rlWeights, rng *rand.Rand) ([]Pair, []int, error) {
	rows, cols := s.Rows(), s.Cols()
	k := m.Config.Candidates
	if k > cols {
		k = cols
	}
	topk := s.RowTopK(k)
	if err := ctxErr(cc); err != nil {
		return nil, nil, err
	}
	realCols := cols - numDummies

	matchOf := make([]int, rows) // row -> chosen column, -1 pending
	for i := range matchOf {
		matchOf[i] = -1
	}
	occupancy := make([]int, cols)
	pairs := make([]Pair, 0, rows)
	var abstained []int

	commit := func(i, j int, score float64) {
		matchOf[i] = j
		occupancy[j]++
		if j >= realCols {
			abstained = append(abstained, i)
			return
		}
		pairs = append(pairs, Pair{Source: i, Target: j, Score: score})
	}

	// Preprocessing: confident pairs are mutual nearest neighbors with a
	// clear top-1/top-2 margin.
	_, colBestRow := s.ColMax()
	remaining := make([]int, 0, rows)
	for i := 0; i < rows; i++ {
		if i%checkRowStride == 0 {
			if err := ctxErr(cc); err != nil {
				return nil, nil, err
			}
		}
		tk := topk[i]
		if len(tk.Indices) == 0 {
			abstained = append(abstained, i)
			matchOf[i] = -2
			continue
		}
		j := tk.Indices[0]
		margin := tk.Values[0]
		if len(tk.Values) > 1 {
			margin = tk.Values[0] - tk.Values[1]
		}
		if colBestRow[j] == i && margin >= m.Config.ConfidenceMargin {
			commit(i, j, tk.Values[0])
			continue
		}
		remaining = append(remaining, i)
	}

	// Sequential pass in decreasing top-score order (most confident first),
	// so earlier (safer) decisions inform later (harder) ones through the
	// coherence and exclusiveness terms.
	remaining = byTopScore(remaining, topk)
	scores := make([]float64, m.Config.Candidates)
	for seq, i := range remaining {
		if seq%checkRowStride == 0 {
			if err := ctxErr(cc); err != nil {
				return nil, nil, err
			}
		}
		tk := topk[i]
		bestScore := 0.0
		bestJ := -1
		for x, j := range tk.Indices {
			score := w.Sim * tk.Values[x]
			if w.Coherence != 0 {
				score += w.Coherence * coherence(i, j, srcAdj, tgtAdj, matchOf)
			}
			score -= w.Exclusive * float64(occupancy[j])
			scores[x] = score
			if bestJ == -1 || score > bestScore {
				bestScore = score
				bestJ = j
			}
		}
		if m.Config.PolicyTemperature > 0 && len(tk.Indices) > 1 {
			// Stochastic policy: sample a candidate from the softmax of the
			// decision scores (the imperfection of a learned policy).
			x := sampleSoftmax(scores[:len(tk.Indices)], bestScore, m.Config.PolicyTemperature, rng)
			bestJ = tk.Indices[x]
			bestScore = scores[x]
		}
		commit(i, bestJ, bestScore)
	}
	return pairs, abstained, nil
}

// sampleSoftmax draws an index proportionally to exp((score−max)/temp).
func sampleSoftmax(scores []float64, max, temp float64, rng *rand.Rand) int {
	var total float64
	weights := make([]float64, len(scores))
	for x, v := range scores {
		w := math.Exp((v - max) / temp)
		weights[x] = w
		total += w
	}
	r := rng.Float64() * total
	for x, w := range weights {
		r -= w
		if r <= 0 {
			return x
		}
	}
	return len(scores) - 1
}

// coherence measures how consistently (i, j) extends the current partial
// matching: the fraction of i's already-matched neighbors whose match is a
// neighbor of j.
func coherence(i, j int, srcAdj, tgtAdj [][]int, matchOf []int) float64 {
	if srcAdj == nil || tgtAdj == nil || i >= len(srcAdj) || j >= len(tgtAdj) {
		return 0
	}
	neighborsJ := tgtAdj[j]
	if len(neighborsJ) == 0 || len(srcAdj[i]) == 0 {
		return 0
	}
	isNeighborOfJ := make(map[int]bool, len(neighborsJ))
	for _, t := range neighborsJ {
		isNeighborOfJ[t] = true
	}
	matchedNeighbors, coherent := 0, 0
	for _, nb := range srcAdj[i] {
		mj := matchOf[nb]
		if mj < 0 {
			continue
		}
		matchedNeighbors++
		if isNeighborOfJ[mj] {
			coherent++
		}
	}
	if matchedNeighbors == 0 {
		return 0
	}
	return float64(coherent) / float64(matchedNeighbors)
}

// byTopScore returns rows (ascending) reordered by descending top-candidate
// score, equal scores by ascending row.
func byTopScore(rows []int, topk []matrix.TopK) []int {
	vals := make([]float64, len(rows))
	for x, i := range rows {
		vals[x] = topk[i].Values[0]
	}
	order := make([]int32, len(rows))
	matrix.OrderDesc(order, vals)
	out := make([]int, len(rows))
	for x, p := range order {
		out[x] = rows[p]
	}
	return out
}
