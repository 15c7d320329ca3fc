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
// its sequential scalar-FMA tail over the last d mod 16 elements. Only which
// operand sits in a register at the FMA differs (the target chunk here, the
// source chunk there), and FP multiplication is exactly commutative.
//
// Arguments of both kernels: a holds the group's source rows (d each,
// row-major), b holds n target rows (d each), out holds the group's output
// rows (n each). d must be at least 16; the Go dispatch (tile.go) sends
// shorter vectors to the per-pair kernel, as dot does.

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
// Six source rows per target row on AVX512VL's 32 YMM registers: 6 pairs × 4
// accumulators (Y0–Y23) + 4 target chunks (Y24–Y27). Every instruction is
// 256 bits wide — EVEX-encoded where an operand is Y16 or above — so no ZMM
// register is touched and the core keeps its AVX2 clock. VEXTRACTF128 and
// VHADDPD have no EVEX form, so pairs 4 and 5 finish their lanewise tree into
// Y1 and Y5, freed by pairs 0 and 1, and reduce there.
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
	LEAQ (BX)(R14*2), R13
	ADDQ R14, R13         // output row 3
	MOVQ CX, DX
	ANDQ $-16, DX

col6:
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
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	VPXORQ Y16, Y16, Y16
	VPXORQ Y17, Y17, Y17
	VPXORQ Y18, Y18, Y18
	VPXORQ Y19, Y19, Y19
	VPXORQ Y20, Y20, Y20
	VPXORQ Y21, Y21, Y21
	VPXORQ Y22, Y22, Y22
	VPXORQ Y23, Y23, Y23
	XORQ   AX, AX

	PCALIGN $32

loop6:
	VMOVUPD     (DI)(AX*8), Y24
	VMOVUPD     32(DI)(AX*8), Y25
	VMOVUPD     64(DI)(AX*8), Y26
	VMOVUPD     96(DI)(AX*8), Y27
	VFMADD231PD (SI)(AX*8), Y24, Y0
	VFMADD231PD 32(SI)(AX*8), Y25, Y1
	VFMADD231PD 64(SI)(AX*8), Y26, Y2
	VFMADD231PD 96(SI)(AX*8), Y27, Y3
	VFMADD231PD (R8)(AX*8), Y24, Y4
	VFMADD231PD 32(R8)(AX*8), Y25, Y5
	VFMADD231PD 64(R8)(AX*8), Y26, Y6
	VFMADD231PD 96(R8)(AX*8), Y27, Y7
	VFMADD231PD (R9)(AX*8), Y24, Y8
	VFMADD231PD 32(R9)(AX*8), Y25, Y9
	VFMADD231PD 64(R9)(AX*8), Y26, Y10
	VFMADD231PD 96(R9)(AX*8), Y27, Y11
	VFMADD231PD (R10)(AX*8), Y24, Y12
	VFMADD231PD 32(R10)(AX*8), Y25, Y13
	VFMADD231PD 64(R10)(AX*8), Y26, Y14
	VFMADD231PD 96(R10)(AX*8), Y27, Y15
	VFMADD231PD (R11)(AX*8), Y24, Y16
	VFMADD231PD 32(R11)(AX*8), Y25, Y17
	VFMADD231PD 64(R11)(AX*8), Y26, Y18
	VFMADD231PD 96(R11)(AX*8), Y27, Y19
	VFMADD231PD (R12)(AX*8), Y24, Y20
	VFMADD231PD 32(R12)(AX*8), Y25, Y21
	VFMADD231PD 64(R12)(AX*8), Y26, Y22
	VFMADD231PD 96(R12)(AX*8), Y27, Y23
	ADDQ        $16, AX
	CMPQ        AX, DX
	JLT         loop6

	// Pair 0 -> X0, 1 -> X4, 2 -> X8, 3 -> X12, 4 -> X1, 5 -> X5.
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

	VADDPD       Y13, Y12, Y12
	VADDPD       Y15, Y14, Y14
	VADDPD       Y14, Y12, Y12
	VEXTRACTF128 $1, Y12, X13
	VADDPD       X13, X12, X12
	VHADDPD      X12, X12, X12

	VADDPD       Y17, Y16, Y16
	VADDPD       Y19, Y18, Y18
	VADDPD       Y18, Y16, Y1
	VEXTRACTF128 $1, Y1, X2
	VADDPD       X2, X1, X1
	VHADDPD      X1, X1, X1

	VADDPD       Y21, Y20, Y20
	VADDPD       Y23, Y22, Y22
	VADDPD       Y22, Y20, Y5
	VEXTRACTF128 $1, Y5, X6
	VADDPD       X6, X5, X5
	VHADDPD      X5, X5, X5

tail6:
	CMPQ        AX, CX
	JGE         store6
	VMOVSD      (DI)(AX*8), X2
	VFMADD231SD (SI)(AX*8), X2, X0
	VFMADD231SD (R8)(AX*8), X2, X4
	VFMADD231SD (R9)(AX*8), X2, X8
	VFMADD231SD (R10)(AX*8), X2, X12
	VFMADD231SD (R11)(AX*8), X2, X1
	VFMADD231SD (R12)(AX*8), X2, X5
	INCQ        AX
	JMP         tail6

store6:
	VMOVSD X0, (BX)
	VMOVSD X4, (BX)(R14*1)
	VMOVSD X8, (BX)(R14*2)
	VMOVSD X12, (R13)
	VMOVSD X1, (R13)(R14*1)
	VMOVSD X5, (R13)(R14*2)
	ADDQ   $8, BX
	ADDQ   $8, R13
	LEAQ   (DI)(CX*8), DI // next target row
	DECQ   R15
	JNZ    col6

done6:
	VZEROUPPER
	RET

// func cpuSupportsAVX512VL() bool
//
// AVX512F and AVX512VL, with the OS saving the opmask and all 32 vector
// registers: what EVEX-encoded 256-bit instructions on YMM16–31 need.
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
