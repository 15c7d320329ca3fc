//go:build amd64 && !purego

#include "textflag.h"

// func dotBlock3AVX2(a0, a1, a2, b []float64, out *[3]float64)
//
// Register-blocked multi-query dot product: three source rows against one
// shared target row per pass. Each of b's four 4-lane chunks is loaded into a
// YMM register exactly once per 16-element step and feeds three FMAs — one
// per source row — so the target-row memory traffic of a tile pass drops 3×
// versus three independent dotAVX2 calls while every pair's arithmetic stays
// identical.
//
// Bit-identity contract: each out[j] must equal dotAVX2(aj, b) exactly. The
// per-pair accumulator layout (lane l of accumulator q sums elements i with
// i mod 16 == 4q+l), the lanewise (acc0+acc1)+(acc2+acc3) tree, the
// cross-lane (l0+l2)+(l1+l3) reduction, and the sequential scalar-FMA tail
// are all copied from dot_amd64.s; the only difference is which operand sits
// in a register at the FMA (b here, a there), and FP multiplication is
// exactly commutative, so every intermediate rounds identically.
//
// 3×1 is the widest geometry that preserves that contract in AVX2's 16 YMM
// registers: 3 pairs × 4 accumulators + 4 shared b chunks. Narrowing the
// per-pair accumulator count to fit more pairs would change the pinned
// summation order. AVX512VL's YMM16–31 make room for 6 pairs at the same
// layout; tileRows6VL (tile_amd64.s) is that geometry.
TEXT ·dotBlock3AVX2(SB), NOSPLIT, $0-104
	MOVQ a0_base+0(FP), SI
	MOVQ a1_base+24(FP), R8
	MOVQ a2_base+48(FP), R9
	MOVQ b_base+72(FP), DI
	MOVQ b_len+80(FP), CX
	MOVQ out+96(FP), BX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	CMPQ AX, DX
	JGE  tail

loop16:
	// One load of each b chunk serves all three source rows.
	VMOVUPD (DI)(AX*8), Y12
	VMOVUPD 32(DI)(AX*8), Y13
	VMOVUPD 64(DI)(AX*8), Y14
	VMOVUPD 96(DI)(AX*8), Y15
	VFMADD231PD (SI)(AX*8), Y12, Y0
	VFMADD231PD 32(SI)(AX*8), Y13, Y1
	VFMADD231PD 64(SI)(AX*8), Y14, Y2
	VFMADD231PD 96(SI)(AX*8), Y15, Y3
	VFMADD231PD (R8)(AX*8), Y12, Y4
	VFMADD231PD 32(R8)(AX*8), Y13, Y5
	VFMADD231PD 64(R8)(AX*8), Y14, Y6
	VFMADD231PD 96(R8)(AX*8), Y15, Y7
	VFMADD231PD (R9)(AX*8), Y12, Y8
	VFMADD231PD 32(R9)(AX*8), Y13, Y9
	VFMADD231PD 64(R9)(AX*8), Y14, Y10
	VFMADD231PD 96(R9)(AX*8), Y15, Y11
	ADDQ $16, AX
	CMPQ AX, DX
	JLT  loop16

tail:
	// Per-pair reductions, each the exact tree from dot_amd64.s.
	// Pair 0 -> X0.
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0

	// Pair 1 -> X4.
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPD X5, X4, X4
	VHADDPD X4, X4, X4

	// Pair 2 -> X8.
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VADDPD Y10, Y8, Y8
	VEXTRACTF128 $1, Y8, X9
	VADDPD X9, X8, X8
	VHADDPD X8, X8, X8

scalar:
	CMPQ AX, CX
	JGE  done
	VMOVSD (DI)(AX*8), X12
	VFMADD231SD (SI)(AX*8), X12, X0
	VFMADD231SD (R8)(AX*8), X12, X4
	VFMADD231SD (R9)(AX*8), X12, X8
	INCQ AX
	JMP  scalar

done:
	VMOVSD X0, (BX)
	VMOVSD X4, 8(BX)
	VMOVSD X8, 16(BX)
	VZEROUPPER
	RET
