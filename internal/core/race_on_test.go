//go:build race

package core

// raceEnabled reports whether the race detector instruments this test
// binary; under it sync.Pool drops a share of Puts, so pool-reuse
// assertions are skipped.
const raceEnabled = true
