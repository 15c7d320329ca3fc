package core

import (
	"context"

	"entmatcher/internal/matrix"
)

// The two orderings the reference bodies in reference_test.go pin, exposed to
// the external test package.
var (
	PartitionBatches = partitionBatches
	ByTopScore       = byTopScore
)

// LAPWork is solveSparseLAP's work tally, exposed to the external test
// package.
type LAPWork struct{ Relaxed, Pushes, Scanned, WholeRows int }

func exportWork(w lapWork) LAPWork {
	return LAPWork{Relaxed: w.relaxed, Pushes: w.pushes, Scanned: w.scanned, WholeRows: w.wholeRows}
}

// SolveSparseLAP runs the sparse LAP solver on g and returns its assignment
// with its work tally.
func SolveSparseLAP(ctx context.Context, g *matrix.CandGraph) ([]int, LAPWork, error) {
	out, w, err := solveSparseLAP(ctx, g, nil)
	return out, exportWork(w), err
}

// hungarianAt is HungarianDecider with the search started at width c0.
type hungarianAt struct {
	HungarianDecider
	c0 int
}

func (d hungarianAt) Decide(ctx *Context, s *matrix.Dense) ([]Pair, []int, error) {
	pairs, abstained, _, err := decideHungarian(ctx, s, d.c0)
	return pairs, abstained, err
}

// NewHungarianAt returns Hun. with its search started from the top-c0
// candidate graph instead of the top-lapStartWidth one.
func NewHungarianAt(c0 int) *Composite {
	return NewComposite(NoneTransform{}, hungarianAt{c0: c0}, "Hun.")
}

// HungarianWork runs the dense decider on s at start width c0 and returns
// its work tally.
func HungarianWork(s *matrix.Dense, c0 int) (LAPWork, error) {
	_, _, w, err := decideHungarian(&Context{S: s}, s, c0)
	return exportWork(w), err
}

// LAPStartWidth is the dense decider's start width.
const LAPStartWidth = lapStartWidth
