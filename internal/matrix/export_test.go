package matrix

import "testing"

// assignTiers lists the kernel tiers of SinkhornSweep this host can run, best
// first: the AVX2 kernels where the CPUID gate allows them, and
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

// tileTierWidths maps the tile kernel's tiers to their source-row groups.
var tileTierWidths = map[string]int{"vl6": 6, "rows3": 3, "go": 1}

// tileTiers lists the tile-kernel tiers this host can run, best first: vl6
// where the CPU has AVX512VL, rows3 where it has AVX2+FMA, and the per-pair Go
// dispatch on every build.
func tileTiers() []string {
	var tiers []string
	for _, t := range []string{"vl6", "rows3", "go"} {
		if tileTierWidths[t] <= bestTileWidth() {
			tiers = append(tiers, t)
		}
	}
	return tiers
}

// forceTileTier runs the rest of the test (or benchmark) on tier, which must
// be one of tileTiers. Like forceAssignTier it is the only way a tier is ever
// chosen by anything but the machine; tests using it must not run in
// parallel.
func forceTileTier(tb testing.TB, tier string) {
	prev := tileWidth
	tileWidth = tileTierWidths[tier]
	tb.Cleanup(func() { tileWidth = prev })
}

// The ranking primitive's key map and route constants, for tests that build
// rows aimed at one route of sortByKeys.
var DescKey = descKey

const (
	InsertionRankMax = insertionRankMax
	RankWindowBits   = rankWindowBits
)
