//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 tier. Per row, 32 int8 elements per iteration: VPMOVSXBW widens
// 16 bytes to 16 int16 lanes, VPMADDWD multiplies and pair-sums into 8 int32
// lanes (each product is at most 127·127 = 16129, so a lane pair sums to at
// most 32258 — no int32 overflow per step), VPADDD accumulates into two YMM
// registers per query. The reduction and the scalar tail are exact integer
// adds, so every score is identical to dotI8Scalar's for every input (pinned
// in dot_test.go). The row loop lives here so a run costs one call.

// FOLD8 sums the eight int32 lanes of lo+hi into the low 32 bits of r.
#define FOLD8(lo, hi, xlo, xhi, r) \
	VPADDD       hi, lo, lo    \
	VEXTRACTI128 $1, lo, xhi   \
	VPADDD       xhi, xlo, xlo \
	VPSHUFD      $0x4E, xlo, xhi \ // [2 3 0 1]
	VPADDD       xhi, xlo, xlo \
	VPSHUFD      $0xB1, xlo, xhi \ // [1 0 3 2]
	VPADDD       xhi, xlo, xlo \
	MOVQ         xlo, r

// func dotI8Rows4AVX2(q0, q1, q2, q3, codes []int8, o0, o1, o2, o3 []int32)
//
// Register-blocked: each iteration sign-extends 32 bytes of the corpus row
// into two YMM int16 registers once (Y8/Y9) and feeds four VPMADDWD/VPADDD
// chains — one per query — so the corpus slab's memory traffic drops 4×
// versus four single-query passes.
TEXT ·dotI8Rows4AVX2(SB), NOSPLIT, $0-216
	MOVQ q0_base+0(FP), SI
	MOVQ q0_len+8(FP), CX
	MOVQ q1_base+24(FP), R8
	MOVQ q2_base+48(FP), R9
	MOVQ q3_base+72(FP), R10
	MOVQ codes_base+96(FP), DI
	XORQ BX, BX

row4:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-32, DX
	CMPQ AX, DX
	JGE  reduce4

loop4:
	// One widening of each corpus chunk serves all four queries.
	VPMOVSXBW (DI)(AX*1), Y8
	VPMOVSXBW 16(DI)(AX*1), Y9

	VPMOVSXBW (SI)(AX*1), Y10
	VPMOVSXBW 16(SI)(AX*1), Y11
	VPMADDWD  Y8, Y10, Y10
	VPMADDWD  Y9, Y11, Y11
	VPADDD    Y10, Y0, Y0
	VPADDD    Y11, Y1, Y1

	VPMOVSXBW (R8)(AX*1), Y10
	VPMOVSXBW 16(R8)(AX*1), Y11
	VPMADDWD  Y8, Y10, Y10
	VPMADDWD  Y9, Y11, Y11
	VPADDD    Y10, Y2, Y2
	VPADDD    Y11, Y3, Y3

	VPMOVSXBW (R9)(AX*1), Y10
	VPMOVSXBW 16(R9)(AX*1), Y11
	VPMADDWD  Y8, Y10, Y10
	VPMADDWD  Y9, Y11, Y11
	VPADDD    Y10, Y4, Y4
	VPADDD    Y11, Y5, Y5

	VPMOVSXBW (R10)(AX*1), Y10
	VPMOVSXBW 16(R10)(AX*1), Y11
	VPMADDWD  Y8, Y10, Y10
	VPMADDWD  Y9, Y11, Y11
	VPADDD    Y10, Y6, Y6
	VPADDD    Y11, Y7, Y7

	ADDQ $32, AX
	CMPQ AX, DX
	JLT  loop4

reduce4:
	FOLD8(Y0, Y1, X0, X1, R11)
	FOLD8(Y2, Y3, X2, X3, R12)
	FOLD8(Y4, Y5, X4, X5, R13)
	FOLD8(Y6, Y7, X6, X7, R14)

tail4:
	CMPQ AX, CX
	JGE  store4
	MOVBLSX (DI)(AX*1), R15
	MOVBLSX (SI)(AX*1), DX
	IMULL   R15, DX
	ADDL    DX, R11
	MOVBLSX (R8)(AX*1), DX
	IMULL   R15, DX
	ADDL    DX, R12
	MOVBLSX (R9)(AX*1), DX
	IMULL   R15, DX
	ADDL    DX, R13
	MOVBLSX (R10)(AX*1), DX
	IMULL   R15, DX
	ADDL    DX, R14
	INCQ    AX
	JMP     tail4

store4:
	MOVQ o0_base+120(FP), DX
	MOVL R11, (DX)(BX*4)
	MOVQ o1_base+144(FP), DX
	MOVL R12, (DX)(BX*4)
	MOVQ o2_base+168(FP), DX
	MOVL R13, (DX)(BX*4)
	MOVQ o3_base+192(FP), DX
	MOVL R14, (DX)(BX*4)
	ADDQ CX, DI
	INCQ BX
	CMPQ BX, o0_len+128(FP)
	JLT  row4
	VZEROUPPER
	RET

// func dotI8Rows1AVX2(q, codes []int8, o []int32)
TEXT ·dotI8Rows1AVX2(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	MOVQ codes_base+24(FP), DI
	MOVQ o_base+48(FP), R10
	MOVQ o_len+56(FP), R11
	MOVQ CX, DX
	ANDQ $-32, DX
	XORQ BX, BX

row1:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	XORQ  AX, AX
	CMPQ  AX, DX
	JGE   reduce1

loop1:
	VPMOVSXBW (SI)(AX*1), Y4
	VPMOVSXBW 16(SI)(AX*1), Y5
	VPMOVSXBW (DI)(AX*1), Y6
	VPMOVSXBW 16(DI)(AX*1), Y7
	VPMADDWD  Y6, Y4, Y4
	VPMADDWD  Y7, Y5, Y5
	VPADDD    Y4, Y0, Y0
	VPADDD    Y5, Y1, Y1
	ADDQ      $32, AX
	CMPQ      AX, DX
	JLT       loop1

reduce1:
	FOLD8(Y0, Y1, X0, X1, R12)

tail1:
	CMPQ AX, CX
	JGE  store1
	MOVBLSX (SI)(AX*1), R8
	MOVBLSX (DI)(AX*1), R9
	IMULL   R9, R8
	ADDL    R8, R12
	INCQ    AX
	JMP     tail1

store1:
	MOVL R12, (R10)(BX*4)
	ADDQ CX, DI
	INCQ BX
	CMPQ BX, R11
	JLT  row1
	VZEROUPPER
	RET

// func prefetchRow(row []float64)
TEXT ·prefetchRow(SB), NOSPLIT, $0-24
	MOVQ row_base+0(FP), SI
	MOVQ row_len+8(FP), CX
	SHLQ $3, CX
	XORQ AX, AX

line:
	CMPQ AX, CX
	JGE  fetched
	PREFETCHT0 (SI)(AX*1)
	ADDQ $64, AX
	JMP  line

fetched:
	RET

// func cpuSupportsAVX2() bool
TEXT ·cpuSupportsAVX2(SB), NOSPLIT, $0-1
	// Highest CPUID leaf must reach 7.
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JL   no
	// Leaf 1 ECX: OSXSAVE (bit 27), AVX (bit 28). No FMA: integer kernel.
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, DX
	ANDL $(1<<27 | 1<<28), DX
	CMPL DX, $(1<<27 | 1<<28)
	JNE  no
	// Leaf 7 subleaf 0 EBX: AVX2 (bit 5).
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   no
	// XCR0 must have XMM (bit 1) and YMM (bit 2) state enabled by the OS.
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func cpuSupportsVNNI() bool
TEXT ·cpuSupportsVNNI(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JL   novnni
	// Leaf 1 ECX: OSXSAVE (bit 27), AVX (bit 28).
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, DX
	ANDL $(1<<27 | 1<<28), DX
	CMPL DX, $(1<<27 | 1<<28)
	JNE  novnni
	// Leaf 7 subleaf 0 EBX: AVX2 (5), AVX512F (16), AVX512BW (30),
	// AVX512VL (31); ECX: AVX512_VNNI (11).
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	MOVL $(1<<5 | 1<<16 | 1<<30 | 1<<31), DX
	ANDL DX, BX
	CMPL BX, DX
	JNE  novnni
	ANDL $(1<<11), CX
	JZ   novnni
	// XCR0: XMM (1), YMM (2), opmask (5), ZMM_Hi256 (6), Hi16_ZMM (7).
	MOVL $0, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  novnni
	MOVB $1, ret+0(FP)
	RET

novnni:
	MOVB $0, ret+0(FP)
	RET
