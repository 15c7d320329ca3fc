//go:build amd64 && !purego

#include "textflag.h"

// The tile kernels: one call scores a group of consecutive source rows against
// every row of a target block and stores each score straight into its
// destination row, so a tile costs one call per row group instead of one per
// score pair.
//
// Bit-identity contract: every score equals dotAVX2(a_j, b_c) exactly. Per
// pair the kernels keep dotAVX2's four 4-lane accumulators (lane l of
// accumulator q sums elements i with i mod 16 == 4q+l), its lanewise
// (acc0+acc1)+(acc2+acc3) tree, its cross-lane (l0+l2)+(l1+l3) reduction and
// its sequential scalar-FMA tail over the last d mod 16 elements. Only the
// order of the two multiplicands at the FMA may differ from dotAVX2's, and FP
// multiplication is exactly commutative.
//
// Arguments of both kernels: a holds the group's source rows (d each,
// row-major), b holds n target rows (d each), out holds the group's output
// rows (n each). d must be at least 16; the Go dispatch (kernels.go) sends
// shorter vectors to the per-pair kernel, as dot does.

// ZERO4 clears four ZMM accumulators.
#define ZERO4(r0, r1, r2, r3) \
	VPXORQ r0, r0, r0; \
	VPXORQ r1, r1, r1; \
	VPXORQ r2, r2, r2; \
	VPXORQ r3, r3, r3

// FMA2 runs one source row's 16-element step against both targets' chunks
// (Z24/Z25 and Z26/Z27): accumulators a0/b0 for target 0, a1/b1 for target 1.
#define FMA2(row, a0, b0, a1, b1) \
	VMOVUPD     (row)(AX*8), Z28; \
	VMOVUPD     64(row)(AX*8), Z29; \
	VFMADD231PD Z28, Z24, a0; \
	VFMADD231PD Z29, Z25, b0; \
	VFMADD231PD Z28, Z26, a1; \
	VFMADD231PD Z29, Z27, b1

// REDUCE folds a pair's accumulators — lanes 0–7 in ZMM za (YMM ya is its
// low half), lanes 8–15 in zb/yb — into the low double of xr in dotAVX2's
// order: (acc0+acc1)+(acc2+acc3) lanewise, then (l0+l2)+(l1+l3).
// VEXTRACTF128 and VHADDPD have no EVEX form, so yr/xr and the scratch xs
// must be registers 0–15.
#define REDUCE(za, ya, zb, yb, yr, xr, xs) \
	VEXTRACTF64X4 $1, za, Y24; \
	VADDPD        Y24, ya, Y24; \
	VEXTRACTF64X4 $1, zb, Y25; \
	VADDPD        Y25, yb, Y25; \
	VADDPD        Y25, Y24, yr; \
	VEXTRACTF128  $1, yr, xs; \
	VADDPD        xs, xr, xr; \
	VHADDPD       xr, xr, xr

// func tileRows3AVX2(a, b, out []float64, d, n int)
//
// Three source rows per target row: 3 pairs × 4 accumulators + 4 target
// chunks fill the 16 YMM registers of AVX2.
TEXT ·tileRows3AVX2(SB), NOSPLIT, $0-88
	MOVQ  a_base+0(FP), SI
	MOVQ  b_base+24(FP), DI
	MOVQ  out_base+48(FP), BX
	MOVQ  d+72(FP), CX
	MOVQ  n+80(FP), R10
	TESTQ R10, R10
	JZ    done3

	LEAQ (SI)(CX*8), R8 // a1
	LEAQ (R8)(CX*8), R9 // a2
	MOVQ R10, R11
	SHLQ $3, R11        // output row stride in bytes
	MOVQ CX, DX
	ANDQ $-16, DX

col3:
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
	XORQ   AX, AX

	PCALIGN $32

loop3:
	// One load of each target chunk serves all three source rows.
	VMOVUPD     (DI)(AX*8), Y12
	VMOVUPD     32(DI)(AX*8), Y13
	VMOVUPD     64(DI)(AX*8), Y14
	VMOVUPD     96(DI)(AX*8), Y15
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
	ADDQ        $16, AX
	CMPQ        AX, DX
	JLT         loop3

	// Per-pair reductions: pair 0 -> X0, pair 1 -> X4, pair 2 -> X8.
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VHADDPD      X0, X0, X0

	VADDPD       Y5, Y4, Y4
	VADDPD       Y7, Y6, Y6
	VADDPD       Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPD       X5, X4, X4
	VHADDPD      X4, X4, X4

	VADDPD       Y9, Y8, Y8
	VADDPD       Y11, Y10, Y10
	VADDPD       Y10, Y8, Y8
	VEXTRACTF128 $1, Y8, X9
	VADDPD       X9, X8, X8
	VHADDPD      X8, X8, X8

tail3:
	CMPQ        AX, CX
	JGE         store3
	VMOVSD      (DI)(AX*8), X12
	VFMADD231SD (SI)(AX*8), X12, X0
	VFMADD231SD (R8)(AX*8), X12, X4
	VFMADD231SD (R9)(AX*8), X12, X8
	INCQ        AX
	JMP         tail3

store3:
	VMOVSD X0, (BX)
	VMOVSD X4, (BX)(R11*1)
	VMOVSD X8, (BX)(R11*2)
	ADDQ   $8, BX
	LEAQ   (DI)(CX*8), DI // next target row
	DECQ   R10
	JNZ    col3

done3:
	VZEROUPPER
	RET

// func tileRows6VL(a, b, out []float64, d, n int)
//
// Six source rows against two target rows per step, in ZMM registers. Pair
// (row j, target t) keeps dotAVX2's four 4-lane accumulators as two 8-lane
// ones: ZMM a holds lanes 0–7 (acc0 in its low half, acc1 in its high half)
// and ZMM b lanes 8–15 (acc2, acc3), so every FMA is lanewise the one
// dotAVX2 does. The accumulators of pair (j, t) are Z(4j+2t) and Z(4j+2t+1)
// (Z0–Z23), the two targets' chunks Z24–Z27, the source row's chunks Z28/Z29.
// A last odd target (and n = 1, the indexed walker's call) takes a one-target
// pass over the t = 0 accumulators with the same reduction and registers.
TEXT ·tileRows6VL(SB), NOSPLIT, $0-88
	MOVQ  a_base+0(FP), SI
	MOVQ  b_base+24(FP), DI
	MOVQ  out_base+48(FP), BX
	MOVQ  d+72(FP), CX
	MOVQ  n+80(FP), R15
	TESTQ R15, R15
	JZ    done6

	LEAQ (SI)(CX*8), R8   // a1
	LEAQ (R8)(CX*8), R9   // a2
	LEAQ (R9)(CX*8), R10  // a3
	LEAQ (R10)(CX*8), R11 // a4
	LEAQ (R11)(CX*8), R12 // a5
	MOVQ R15, R14
	SHLQ $3, R14          // output row stride in bytes
	MOVQ CX, DX
	ANDQ $-16, DX
	CMPQ R15, $2
	JLT  one6

two6:
	LEAQ (DI)(CX*8), R13 // target 1
	ZERO4(Z0, Z1, Z2, Z3)
	ZERO4(Z4, Z5, Z6, Z7)
	ZERO4(Z8, Z9, Z10, Z11)
	ZERO4(Z12, Z13, Z14, Z15)
	ZERO4(Z16, Z17, Z18, Z19)
	ZERO4(Z20, Z21, Z22, Z23)
	XORQ AX, AX

	PCALIGN $32

loop2:
	// Each target chunk serves six rows, each source chunk two targets.
	VMOVUPD (DI)(AX*8), Z24
	VMOVUPD 64(DI)(AX*8), Z25
	VMOVUPD (R13)(AX*8), Z26
	VMOVUPD 64(R13)(AX*8), Z27
	FMA2(SI, Z0, Z1, Z2, Z3)
	FMA2(R8, Z4, Z5, Z6, Z7)
	FMA2(R9, Z8, Z9, Z10, Z11)
	FMA2(R10, Z12, Z13, Z14, Z15)
	FMA2(R11, Z16, Z17, Z18, Z19)
	FMA2(R12, Z20, Z21, Z22, Z23)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JLT     loop2

	// Rows 0–3 reduce in place: pair (j, t) -> X(4j+2t). Rows 4–5 then take
	// the odd registers those freed: (4,0) -> X1, (4,1) -> X3, (5,0) -> X5,
	// (5,1) -> X7.
	REDUCE(Z0, Y0, Z1, Y1, Y0, X0, X1)
	REDUCE(Z2, Y2, Z3, Y3, Y2, X2, X3)
	REDUCE(Z4, Y4, Z5, Y5, Y4, X4, X5)
	REDUCE(Z6, Y6, Z7, Y7, Y6, X6, X7)
	REDUCE(Z8, Y8, Z9, Y9, Y8, X8, X9)
	REDUCE(Z10, Y10, Z11, Y11, Y10, X10, X11)
	REDUCE(Z12, Y12, Z13, Y13, Y12, X12, X13)
	REDUCE(Z14, Y14, Z15, Y15, Y14, X14, X15)
	REDUCE(Z16, Y16, Z17, Y17, Y1, X1, X3)
	REDUCE(Z18, Y18, Z19, Y19, Y3, X3, X5)
	REDUCE(Z20, Y20, Z21, Y21, Y5, X5, X7)
	REDUCE(Z22, Y22, Z23, Y23, Y7, X7, X9)

tail2:
	CMPQ        AX, CX
	JGE         store2
	VMOVSD      (DI)(AX*8), X9
	VMOVSD      (R13)(AX*8), X11
	VFMADD231SD (SI)(AX*8), X9, X0
	VFMADD231SD (SI)(AX*8), X11, X2
	VFMADD231SD (R8)(AX*8), X9, X4
	VFMADD231SD (R8)(AX*8), X11, X6
	VFMADD231SD (R9)(AX*8), X9, X8
	VFMADD231SD (R9)(AX*8), X11, X10
	VFMADD231SD (R10)(AX*8), X9, X12
	VFMADD231SD (R10)(AX*8), X11, X14
	VFMADD231SD (R11)(AX*8), X9, X1
	VFMADD231SD (R11)(AX*8), X11, X3
	VFMADD231SD (R12)(AX*8), X9, X5
	VFMADD231SD (R12)(AX*8), X11, X7
	INCQ        AX
	JMP         tail2

store2:
	VMOVSD X0, (BX)
	VMOVSD X2, 8(BX)
	VMOVSD X4, (BX)(R14*1)
	VMOVSD X6, 8(BX)(R14*1)
	VMOVSD X8, (BX)(R14*2)
	VMOVSD X10, 8(BX)(R14*2)
	LEAQ   (BX)(R14*2), R13
	ADDQ   R14, R13       // output row 3
	VMOVSD X12, (R13)
	VMOVSD X14, 8(R13)
	VMOVSD X1, (R13)(R14*1)
	VMOVSD X3, 8(R13)(R14*1)
	VMOVSD X5, (R13)(R14*2)
	VMOVSD X7, 8(R13)(R14*2)
	ADDQ   $16, BX
	LEAQ   (DI)(CX*8), DI
	LEAQ   (DI)(CX*8), DI // next target pair
	SUBQ   $2, R15
	CMPQ   R15, $2
	JGE    two6
	TESTQ  R15, R15
	JZ     done6

one6:
	ZERO4(Z0, Z1, Z4, Z5)
	ZERO4(Z8, Z9, Z12, Z13)
	ZERO4(Z16, Z17, Z20, Z21)
	XORQ AX, AX

	PCALIGN $32

loop1:
	VMOVUPD     (DI)(AX*8), Z24
	VMOVUPD     64(DI)(AX*8), Z25
	VFMADD231PD (SI)(AX*8), Z24, Z0
	VFMADD231PD 64(SI)(AX*8), Z25, Z1
	VFMADD231PD (R8)(AX*8), Z24, Z4
	VFMADD231PD 64(R8)(AX*8), Z25, Z5
	VFMADD231PD (R9)(AX*8), Z24, Z8
	VFMADD231PD 64(R9)(AX*8), Z25, Z9
	VFMADD231PD (R10)(AX*8), Z24, Z12
	VFMADD231PD 64(R10)(AX*8), Z25, Z13
	VFMADD231PD (R11)(AX*8), Z24, Z16
	VFMADD231PD 64(R11)(AX*8), Z25, Z17
	VFMADD231PD (R12)(AX*8), Z24, Z20
	VFMADD231PD 64(R12)(AX*8), Z25, Z21
	ADDQ        $16, AX
	CMPQ        AX, DX
	JLT         loop1

	// The t = 0 half of the two-target reduction: row j -> X0, X4, X8,
	// X12, X1, X5.
	REDUCE(Z0, Y0, Z1, Y1, Y0, X0, X1)
	REDUCE(Z4, Y4, Z5, Y5, Y4, X4, X5)
	REDUCE(Z8, Y8, Z9, Y9, Y8, X8, X9)
	REDUCE(Z12, Y12, Z13, Y13, Y12, X12, X13)
	REDUCE(Z16, Y16, Z17, Y17, Y1, X1, X3)
	REDUCE(Z20, Y20, Z21, Y21, Y5, X5, X7)

tail1:
	CMPQ        AX, CX
	JGE         store1
	VMOVSD      (DI)(AX*8), X9
	VFMADD231SD (SI)(AX*8), X9, X0
	VFMADD231SD (R8)(AX*8), X9, X4
	VFMADD231SD (R9)(AX*8), X9, X8
	VFMADD231SD (R10)(AX*8), X9, X12
	VFMADD231SD (R11)(AX*8), X9, X1
	VFMADD231SD (R12)(AX*8), X9, X5
	INCQ        AX
	JMP         tail1

store1:
	VMOVSD X0, (BX)
	VMOVSD X4, (BX)(R14*1)
	VMOVSD X8, (BX)(R14*2)
	LEAQ   (BX)(R14*2), R13
	ADDQ   R14, R13       // output row 3
	VMOVSD X12, (R13)
	VMOVSD X1, (R13)(R14*1)
	VMOVSD X5, (R13)(R14*2)

done6:
	VZEROUPPER
	RET

// func cpuSupportsAVX512VL() bool
//
// AVX512F and AVX512VL, with the OS saving the opmask and all 32 ZMM
// registers: what tileRows6VL's 512-bit code and its EVEX-encoded 256-bit
// reductions on YMM16–31 need.
TEXT ·cpuSupportsAVX512VL(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JL   novl
	// Leaf 1 ECX: OSXSAVE (bit 27).
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<27), CX
	JZ   novl
	// Leaf 7 subleaf 0 EBX: AVX512F (16), AVX512VL (31).
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	MOVL $(1<<16 | 1<<31), DX
	ANDL DX, BX
	CMPL BX, DX
	JNE  novl
	// XCR0: XMM (1), YMM (2), opmask (5), ZMM_Hi256 (6), Hi16_ZMM (7).
	MOVL $0, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  novl
	MOVB $1, ret+0(FP)
	RET

novl:
	MOVB $0, ret+0(FP)
	RET
