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
type LAPWork struct{ Relaxed, Pushes, Scanned int }

// SolveSparseLAP runs the sparse LAP solver on g and returns its assignment
// with its work tally.
func SolveSparseLAP(ctx context.Context, g *matrix.CandGraph) ([]int, LAPWork, error) {
	out, w, err := solveSparseLAP(ctx, g)
	return out, LAPWork{Relaxed: w.relaxed, Pushes: w.pushes, Scanned: w.scanned}, err
}
