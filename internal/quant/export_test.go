package quant

import "testing"

// String names a tier in subtest and benchmark names.
func (t i8Tier) String() string {
	return [...]string{"scalar", "avx2", "vnni"}[t]
}

// detectedTier is the kernel tier the machine chose at startup, before any
// test forced another.
var detectedTier = kernelTier

// hostTiers lists every int8 kernel tier this host can run, best first: the
// detected one and all below it (a VNNI machine has AVX2; every build has
// the scalar loop).
func hostTiers() []i8Tier {
	var tiers []i8Tier
	for t := int(detectedTier); t >= int(tierScalar); t-- {
		tiers = append(tiers, i8Tier(t))
	}
	return tiers
}

// forceTier runs the rest of the test (or benchmark) on tier, which must be
// one of hostTiers. This override is the only way a tier is ever chosen by
// anything but the machine; tests using it must not run in parallel.
func forceTier(tb testing.TB, tier i8Tier) {
	prev := kernelTier
	kernelTier = tier
	tb.Cleanup(func() { kernelTier = prev })
}

// ScanTally reads the int8 scan's counters: query rows searched and
// positions scored since the process started.
func ScanTally() (queries, positions int64) {
	return scanTally.queries.Load(), scanTally.positions.Load()
}
