//go:build amd64 && !purego

#include "textflag.h"

// The AVX512-VNNI tier, on 256-bit registers (AVX512VL): 32 values per
// VPDPBUSD. Not 512-bit ones: the kernel is bound by its reductions and by
// L2, so ZMM scored a run no faster, while every ZMM instruction lowers the
// core's clock for the milliseconds after it — measured, 10 % off the code
// AROUND a point lookup, which is most of what a lookup runs.
//
// VPDPBUSD adds, per int32 lane, four products of an
// UNSIGNED byte and a signed byte. The corpus bytes take the unsigned side
// biased by XOR 0x80 (c + 128 ∈ [0, 255]), the query bytes the signed side,
// and 128·Σq comes off every folded sum:
//
//	Σ (c+128)·q − 128·Σq = Σ c·q
//
// in wrapping int32 arithmetic — exact, because the true score fits (|Σ c·q|
// ≤ 128·128·2^16 = 2^30 at maxDim). Σq is one VPDPBUSD pass of the query
// against bytes of 1, made once per call and independent of the first row's
// chain, so a one-row call overlaps the two. The dimension tail uses
// byte-masked zeroing loads: a masked-out corpus byte becomes 0x80, times a
// query byte of 0. Every score is identical to dotI8Scalar's for every
// input, codes of -128 included (pinned in dot_test.go).

DATA bias80<>+0(SB)/8, $0x8080808080808080
GLOBL bias80<>(SB), RODATA|NOPTR, $8
DATA ones01<>+0(SB)/8, $0x0101010101010101
GLOBL ones01<>(SB), RODATA|NOPTR, $8

// REDUCE4 folds the eight lanes of each of four accumulators into
// xa = [Σya, Σyb, Σyc, Σyd]: two interleave-and-add steps transpose within
// each 128-bit lane, one more folds the two lanes. yc and Y30 are clobbered.
#define REDUCE4(ya, yb, yc, yd, xa) \
	VPUNPCKLDQ    yb, ya, Y30 \ // [a0 b0 a1 b1]
	VPUNPCKHDQ    yb, ya, ya  \ // [a2 b2 a3 b3]
	VPADDD        Y30, ya, ya \
	VPUNPCKLDQ    yd, yc, Y30 \
	VPUNPCKHDQ    yd, yc, yc  \
	VPADDD        Y30, yc, yc \
	VPUNPCKLQDQ   yc, ya, Y30 \ // [a02 b02 c02 d02]
	VPUNPCKHQDQ   yc, ya, ya  \ // [a13 b13 c13 d13]
	VPADDD        Y30, ya, ya \
	VEXTRACTI32X4 $1, ya, X30 \
	VPADDD        X30, xa, xa

// SETUP leaves DX = the bytes of d (CX) in whole 32-byte chunks, K1 = the
// byte mask of the d%32 tail, Y24 = the bias, Y25 = ones.
#define SETUP \
	VPBROADCASTQ bias80<>(SB), Y24 \
	VPBROADCASTQ ones01<>(SB), Y25 \
	MOVQ         CX, DX     \
	ANDQ         $-32, DX   \
	MOVQ         CX, AX     \
	ANDQ         $31, AX    \
	MOVQ         $1, BX     \
	SHLXQ        AX, BX, BX \
	DECQ         BX         \
	KMOVQ        BX, K1

// func dotI8Rows4VNNI(q0, q1, q2, q3, codes []int8, o0, o1, o2, o3 []int32)
//
// One corpus row per step against four queries: the row's chunk is loaded
// and biased once and feeds four VPDPBUSD chains, and one REDUCE4 yields the
// row's four scores.
TEXT ·dotI8Rows4VNNI(SB), NOSPLIT, $0-216
	MOVQ q0_base+0(FP), R8
	MOVQ q0_len+8(FP), CX
	MOVQ q1_base+24(FP), R9
	MOVQ q2_base+48(FP), R10
	MOVQ q3_base+72(FP), R11
	MOVQ codes_base+96(FP), SI
	MOVQ o0_base+120(FP), R12
	MOVQ o0_len+128(FP), DI
	MOVQ o1_base+144(FP), R13
	MOVQ o2_base+168(FP), R14
	MOVQ o3_base+192(FP), R15
	SETUP

	// X16 = 128·[Σq0, Σq1, Σq2, Σq3].
	VPXORD Y0, Y0, Y0
	VPXORD Y1, Y1, Y1
	VPXORD Y2, Y2, Y2
	VPXORD Y3, Y3, Y3
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    qtail4

qloop4:
	VPDPBUSD (R8)(AX*1), Y25, Y0
	VPDPBUSD (R9)(AX*1), Y25, Y1
	VPDPBUSD (R10)(AX*1), Y25, Y2
	VPDPBUSD (R11)(AX*1), Y25, Y3
	ADDQ     $32, AX
	CMPQ     AX, DX
	JLT      qloop4

qtail4:
	CMPQ       AX, CX
	JGE        qsum4
	VMOVDQU8.Z (R8)(AX*1), K1, Y4
	VMOVDQU8.Z (R9)(AX*1), K1, Y5
	VMOVDQU8.Z (R10)(AX*1), K1, Y6
	VMOVDQU8.Z (R11)(AX*1), K1, Y7
	VPDPBUSD   Y4, Y25, Y0
	VPDPBUSD   Y5, Y25, Y1
	VPDPBUSD   Y6, Y25, Y2
	VPDPBUSD   Y7, Y25, Y3

qsum4:
	REDUCE4(Y0, Y1, Y2, Y3, X0)
	VPSLLD $7, X0, X16

	XORQ BX, BX

row4:
	VPXORD Y0, Y0, Y0
	VPXORD Y1, Y1, Y1
	VPXORD Y2, Y2, Y2
	VPXORD Y3, Y3, Y3
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    ctail4

chunk4:
	VPXORD   (SI)(AX*1), Y24, Y20
	VPDPBUSD (R8)(AX*1), Y20, Y0
	VPDPBUSD (R9)(AX*1), Y20, Y1
	VPDPBUSD (R10)(AX*1), Y20, Y2
	VPDPBUSD (R11)(AX*1), Y20, Y3
	ADDQ     $32, AX
	CMPQ     AX, DX
	JLT      chunk4

ctail4:
	CMPQ       AX, CX
	JGE        fold4
	VMOVDQU8.Z (SI)(AX*1), K1, Y20
	VPXORD     Y24, Y20, Y20
	VMOVDQU8.Z (R8)(AX*1), K1, Y4
	VMOVDQU8.Z (R9)(AX*1), K1, Y5
	VMOVDQU8.Z (R10)(AX*1), K1, Y6
	VMOVDQU8.Z (R11)(AX*1), K1, Y7
	VPDPBUSD   Y4, Y20, Y0
	VPDPBUSD   Y5, Y20, Y1
	VPDPBUSD   Y6, Y20, Y2
	VPDPBUSD   Y7, Y20, Y3

fold4:
	REDUCE4(Y0, Y1, Y2, Y3, X0)
	VPSUBD  X16, X0, X0
	VMOVD   X0, (R12)(BX*4)
	VPEXTRD $1, X0, (R13)(BX*4)
	VPEXTRD $2, X0, (R14)(BX*4)
	VPEXTRD $3, X0, (R15)(BX*4)
	ADDQ    CX, SI
	INCQ    BX
	CMPQ    BX, DI
	JLT     row4
	VZEROUPPER
	RET

// func dotI8Rows1VNNI(q, codes []int8, o []int32)
//
// Four corpus rows per step against one query, so one REDUCE4 yields four
// consecutive scores; the up to three rows left over go one at a time.
TEXT ·dotI8Rows1VNNI(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), R8
	MOVQ q_len+8(FP), CX
	MOVQ codes_base+24(FP), SI
	MOVQ o_base+48(FP), R9
	MOVQ o_len+56(FP), R14
	SETUP

	// X16 = 128·Σq in every lane.
	VPXORD Y0, Y0, Y0
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    qtail1

qloop1:
	VPDPBUSD (R8)(AX*1), Y25, Y0
	ADDQ     $32, AX
	CMPQ     AX, DX
	JLT      qloop1

qtail1:
	CMPQ       AX, CX
	JGE        qsum1
	VMOVDQU8.Z (R8)(AX*1), K1, Y4
	VPDPBUSD   Y4, Y25, Y0

qsum1:
	VPXORD       Y1, Y1, Y1
	VPXORD       Y2, Y2, Y2
	VPXORD       Y3, Y3, Y3
	REDUCE4(Y0, Y1, Y2, Y3, X0)
	VPSLLD       $7, X0, X0
	VPBROADCASTD X0, X16

	XORQ BX, BX
	MOVQ R14, R15
	ANDQ $-4, R15 // rows in whole tiles
	CMPQ BX, R15
	JGE  rest1

tile1:
	LEAQ   (SI)(CX*1), DI
	LEAQ   (SI)(CX*2), R12
	LEAQ   (DI)(CX*2), R13
	VPXORD Y0, Y0, Y0
	VPXORD Y1, Y1, Y1
	VPXORD Y2, Y2, Y2
	VPXORD Y3, Y3, Y3
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    ctail1

chunk1:
	VMOVDQU64 (R8)(AX*1), Y26
	VPXORD    (SI)(AX*1), Y24, Y20
	VPXORD    (DI)(AX*1), Y24, Y21
	VPXORD    (R12)(AX*1), Y24, Y22
	VPXORD    (R13)(AX*1), Y24, Y23
	VPDPBUSD  Y26, Y20, Y0
	VPDPBUSD  Y26, Y21, Y1
	VPDPBUSD  Y26, Y22, Y2
	VPDPBUSD  Y26, Y23, Y3
	ADDQ      $32, AX
	CMPQ      AX, DX
	JLT       chunk1

ctail1:
	CMPQ       AX, CX
	JGE        fold1
	VMOVDQU8.Z (R8)(AX*1), K1, Y26
	VMOVDQU8.Z (SI)(AX*1), K1, Y20
	VMOVDQU8.Z (DI)(AX*1), K1, Y21
	VMOVDQU8.Z (R12)(AX*1), K1, Y22
	VMOVDQU8.Z (R13)(AX*1), K1, Y23
	VPXORD     Y24, Y20, Y20
	VPXORD     Y24, Y21, Y21
	VPXORD     Y24, Y22, Y22
	VPXORD     Y24, Y23, Y23
	VPDPBUSD   Y26, Y20, Y0
	VPDPBUSD   Y26, Y21, Y1
	VPDPBUSD   Y26, Y22, Y2
	VPDPBUSD   Y26, Y23, Y3

fold1:
	REDUCE4(Y0, Y1, Y2, Y3, X0)
	VPSUBD  X16, X0, X0
	VMOVDQU X0, (R9)(BX*4)
	LEAQ    (SI)(CX*4), SI
	ADDQ    $4, BX
	CMPQ    BX, R15
	JLT     tile1

rest1:
	CMPQ   BX, R14
	JGE    done1
	VPXORD Y0, Y0, Y0
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    rtail1

rchunk1:
	VPXORD   (SI)(AX*1), Y24, Y20
	VPDPBUSD (R8)(AX*1), Y20, Y0
	ADDQ     $32, AX
	CMPQ     AX, DX
	JLT      rchunk1

rtail1:
	CMPQ       AX, CX
	JGE        rfold1
	VMOVDQU8.Z (R8)(AX*1), K1, Y26
	VMOVDQU8.Z (SI)(AX*1), K1, Y20
	VPXORD     Y24, Y20, Y20
	VPDPBUSD   Y26, Y20, Y0

rfold1:
	VPXORD Y1, Y1, Y1
	VPXORD Y2, Y2, Y2
	VPXORD Y3, Y3, Y3
	REDUCE4(Y0, Y1, Y2, Y3, X0)
	VPSUBD X16, X0, X0
	VMOVD  X0, (R9)(BX*4)
	ADDQ   CX, SI
	INCQ   BX
	JMP    rest1

done1:
	VZEROUPPER
	RET
