package core

import (
	"fmt"
	"strings"
	"time"
)

// MatcherParams are the hyper-parameters the named constructors take. C is
// the candidate budget of the sparse twins and, on a dense run, RInf-pb's
// block size (0 = 50) — the same candidate-graph body, labelled "RInf-pb".
type MatcherParams struct {
	C, CSLSK, SinkhornL int
}

// pbBlock is RInf-pb's block size on a dense run.
func (p MatcherParams) pbBlock() int {
	if p.C > 0 {
		return p.C
	}
	return 50
}

// MatcherTable maps algorithm names to the bodies one kind of prepared run
// can feed. The three tables below are the only such map: cmd/entmatcher's
// -m, entserver's /align and the benchmark tables all resolve through them.
// They are separate values so that a binary links only the bodies of the
// kinds it serves.
type MatcherTable struct {
	on    string // the kind, for the error text
	rows  []namedMatcher
	floor []string // WithBudget's cheaper tiers, by name; the last always answers
}

type namedMatcher struct {
	name  string
	flags rowFlags
	build func(MatcherParams) Matcher
}

type rowFlags uint8

const (
	// variant rows are not among the paper's seven: where all seven run (the
	// dense matrix) they are offered by name only.
	variant rowFlags = 1 << iota
	// abstains marks the algorithms that force a 1-to-1 assignment of every
	// source, so they can decline a match only through abstention columns
	// (the paper's § 5.1 dummy-node recipe): Hungarian and Gale–Shapley, in
	// every body.
	abstains
)

var (
	// OnDense: the materialized score matrix; every algorithm has a body.
	OnDense = &MatcherTable{"the dense matrix", []namedMatcher{
		{"DInf", 0, func(MatcherParams) Matcher { return NewDInf() }},
		{"CSLS", 0, func(p MatcherParams) Matcher { return NewCSLS(p.CSLSK) }},
		{"RInf", 0, func(MatcherParams) Matcher { return NewRInf() }},
		{"RInf-wr", variant, func(MatcherParams) Matcher { return NewRInfWR() }},
		{"RInf-pb", variant, func(p MatcherParams) Matcher { return NewRInfPB(p.pbBlock()) }},
		{"Sink.", 0, func(p MatcherParams) Matcher { return NewSinkhorn(p.SinkhornL) }},
		{"Sink.-mb", variant, func(p MatcherParams) Matcher { return NewSinkhornBlocked(512, p.SinkhornL) }},
		{"Hun.", abstains, func(MatcherParams) Matcher { return NewHungarian() }},
		{"SMat", abstains, func(MatcherParams) Matcher { return NewSMat() }},
		{"RL", 0, func(MatcherParams) Matcher { return NewRL(DefaultRLConfig()) }},
	}, []string{"RInf-pb", "DInf"}}

	// OnStream: score tiles only; the fused matchers.
	OnStream = &MatcherTable{"a streaming run", []namedMatcher{
		{"DInf", 0, func(MatcherParams) Matcher { return NewDInfStream() }},
		{"CSLS", 0, func(p MatcherParams) Matcher { return NewCSLSStream(p.CSLSK) }},
		{"Sink.-mb", 0, func(p MatcherParams) Matcher { return NewSinkhornBlocked(512, p.SinkhornL) }},
	}, []string{"DInf"}}

	// OnSparse: top-C candidate graphs; the sparse twins (DInf streams).
	OnSparse = &MatcherTable{"candidate graphs", []namedMatcher{
		{"DInf", 0, func(MatcherParams) Matcher { return NewDInfStream() }},
		{"CSLS", 0, func(p MatcherParams) Matcher { return NewCSLSSparse(p.C, p.CSLSK) }},
		{"RInf", 0, func(p MatcherParams) Matcher { return NewRInfSparse(p.C) }},
		{"Sink.", 0, func(p MatcherParams) Matcher { return NewSinkhornSparse(p.C, p.SinkhornL) }},
		{"Hun.", abstains, func(p MatcherParams) Matcher { return NewHungarianSparse(p.C) }},
		{"SMat", abstains, func(p MatcherParams) Matcher { return NewSMatSparse(p.C) }},
	}, []string{"DInf"}}
)

// Names lists, in table order, the names that resolve: all of them, or the
// ones a run of this kind matches by default.
func (t *MatcherTable) Names(all bool) []string {
	var out []string
	for _, r := range t.rows {
		if all || r.flags&variant == 0 {
			out = append(out, r.name)
		}
	}
	return out
}

// Abstains reports whether the named algorithm forces a 1-to-1 assignment,
// so that under unmatchable entities it must run with abstention columns
// (the § 5.1 recipe) to decline a match. Unknown names report false.
func (t *MatcherTable) Abstains(name string) bool {
	for _, r := range t.rows {
		if r.name == name {
			return r.flags&abstains != 0
		}
	}
	return false
}

// New builds the body of the named algorithm. An unknown name, or one with
// no body on this kind, is an error listing what resolves.
func (t *MatcherTable) New(name string, p MatcherParams) (Matcher, error) {
	for i := range t.rows {
		if t.rows[i].name == name {
			return t.rows[i].build(p), nil
		}
	}
	return nil, fmt.Errorf("unknown matcher %q on %s (have: %s)", name, t.on, strings.Join(t.Names(true), ", "))
}

// WithBudget wraps m in the degradation ladder of this kind under the budget:
// m, then the cheaper tiers that can run there — progressive-blocking RInf
// and DInf on the dense matrix, streaming DInf without it — skipping a tier
// that is m itself. The last tier always answers. A budget <= 0 returns m.
func (t *MatcherTable) WithBudget(m Matcher, budget time.Duration, p MatcherParams) Matcher {
	if budget <= 0 {
		return m
	}
	tiers := []Matcher{m}
	for _, name := range t.floor {
		// No error: a floor names rows of its own table (TestWithBudgetLadder).
		if fb, _ := t.New(name, p); fb.Name() != m.Name() {
			tiers = append(tiers, fb)
		}
	}
	return NewFallback(budget, tiers...)
}
