//go:build race

package quant

// raceEnabled reports whether the race detector instruments this test
// binary; allocation-count assertions are skipped under it, because the
// instrumentation adds bookkeeping allocations of its own.
const raceEnabled = true
