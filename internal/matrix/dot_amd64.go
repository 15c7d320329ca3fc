//go:build amd64 && !purego

package matrix

// hasFastDot reports whether the running CPU (and OS) support the AVX2+FMA
// dot kernel. Detected once at startup; when false the dot product of 16+
// elements runs dotFMA in Go, with the same bits.
var hasFastDot = cpuSupportsAVX2FMA()

// dotAVX2 is dotFMA vectorized: four 4-lane FMA accumulators process 16
// elements per step (lane l of accumulator q holds the partial sum of
// elements i with i mod 16 == 4q+l), reduced as ((acc0+acc1)+(acc2+acc3))
// lanewise, then ((l0+l2)+(l1+l3)) across lanes, with the tail folded in by
// sequential scalar FMAs — dotFMA's order, so it returns dotFMA's bits.
// Implemented in dot_amd64.s.
//
//go:noescape
func dotAVX2(a, b []float64) float64

// cpuSupportsAVX2FMA checks CPUID for AVX2 and FMA and XGETBV for OS-enabled
// YMM state. Implemented in dot_amd64.s.
func cpuSupportsAVX2FMA() bool
