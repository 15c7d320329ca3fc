package matrix

import "testing"

// assignTiers lists the kernel tiers of SinkhornSweep and LAPScan this host
// can run, best first: the AVX2 kernels where the CPUID gate allows them, and
// the Go bodies on every build.
func assignTiers() []string {
	if hasFastDot {
		return []string{"avx2", "scalar"}
	}
	return []string{"scalar"}
}

// forceAssignTier runs the rest of the test (or benchmark) on tier, which must
// be one of assignTiers. This override is the only way a tier is ever chosen
// by anything but the machine; tests using it must not run in parallel.
func forceAssignTier(tb testing.TB, tier string) {
	prev := assignAVX2
	assignAVX2 = tier == "avx2"
	tb.Cleanup(func() { assignAVX2 = prev })
}
