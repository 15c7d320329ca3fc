//go:build amd64 && !purego

#include "textflag.h"

// The Sinkhorn sweep kernels (see assign_amd64.go). Registers
// are 256-bit only. Bit-identity with the Go bodies in assign.go rests on
// three rules: every product is rounded on its own (VMULPD, never an FMA),
// every sum keeps its serial operand order (one lane per row or column), and
// every comparison is the Go body's strict <. Every loop head is PCALIGN'd to
// 64 bytes, which also raises the function's alignment to 64: the loops sit
// at the same offset in a cache line wherever the linker puts them.

// assignTailMask holds the lane masks of a ragged last column block: entry
// t-1 (32 bytes each) enables the first t of four lanes.
DATA assignTailMask<>+0(SB)/8, $-1
DATA assignTailMask<>+8(SB)/8, $0
DATA assignTailMask<>+16(SB)/8, $0
DATA assignTailMask<>+24(SB)/8, $0
DATA assignTailMask<>+32(SB)/8, $-1
DATA assignTailMask<>+40(SB)/8, $-1
DATA assignTailMask<>+48(SB)/8, $0
DATA assignTailMask<>+56(SB)/8, $0
DATA assignTailMask<>+64(SB)/8, $-1
DATA assignTailMask<>+72(SB)/8, $-1
DATA assignTailMask<>+80(SB)/8, $-1
DATA assignTailMask<>+88(SB)/8, $0
GLOBL assignTailMask<>(SB), RODATA|NOPTR, $96

// TRANSPOSE4 turns four row vectors Y0..Y3 (rows a..d, columns j..j+3) into
// four column vectors Y0..Y3 whose lanes are rows a..d. Clobbers Y4..Y7.
#define TRANSPOSE4 \
	VUNPCKLPD  Y1, Y0, Y4; \
	VUNPCKHPD  Y1, Y0, Y5; \
	VUNPCKLPD  Y3, Y2, Y6; \
	VUNPCKHPD  Y3, Y2, Y7; \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3

// ADDCOLS4 adds the column vectors Y0..Y3 into acc in column order.
#define ADDCOLS4(acc) \
	VADDPD Y0, acc, acc; \
	VADDPD Y1, acc, acc; \
	VADDPD Y2, acc, acc; \
	VADDPD Y3, acc, acc

// func sweepRows8AVX2(rows, scale []float64, eps float64)
//
// Row r of the eight sits at SI + r·S with S the row stride in bytes: r·S is
// S, 2S, 3S (R9), 4S, 5S (R10), 6S, 7S (R11) from R8 = S. BX and DX walk the
// columns of the rows and of scale. Y12 sums rows 0–3, Y13 rows 4–7, one lane
// per row; Y15 holds scale's block, Y14 the ragged block's lane mask.
TEXT ·sweepRows8AVX2(SB), NOSPLIT, $0-56
	MOVQ rows_base+0(FP), SI
	MOVQ scale_base+24(FP), DI
	MOVQ scale_len+32(FP), CX
	LEAQ (CX*8), R8
	LEAQ (R8)(R8*2), R9
	LEAQ (R8)(R8*4), R10
	LEAQ (R9)(R8*4), R11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	MOVQ SI, BX
	MOVQ DI, DX
	MOVQ CX, AX
	SHRQ $2, AX
	JZ   sumtail

	PCALIGN $64

sumblock:
	VMOVUPD (DX), Y15
	VMULPD  (BX), Y15, Y0
	VMULPD  (BX)(R8*1), Y15, Y1
	VMULPD  (BX)(R8*2), Y15, Y2
	VMULPD  (BX)(R9*1), Y15, Y3
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(R8*1)
	VMOVUPD Y2, (BX)(R8*2)
	VMOVUPD Y3, (BX)(R9*1)
	TRANSPOSE4
	ADDCOLS4(Y12)
	VMULPD  (BX)(R8*4), Y15, Y0
	VMULPD  (BX)(R10*1), Y15, Y1
	VMULPD  (BX)(R9*2), Y15, Y2
	VMULPD  (BX)(R11*1), Y15, Y3
	VMOVUPD Y0, (BX)(R8*4)
	VMOVUPD Y1, (BX)(R10*1)
	VMOVUPD Y2, (BX)(R9*2)
	VMOVUPD Y3, (BX)(R11*1)
	TRANSPOSE4
	ADDCOLS4(Y13)
	ADDQ    $32, BX
	ADDQ    $32, DX
	DECQ    AX
	JNZ     sumblock

sumtail:
	// t = cols mod 4 ragged columns: masked loads read zeros and masked
	// stores leave the lanes past the row alone; only the t real column
	// vectors are added.
	MOVQ CX, AX
	ANDQ $3, AX
	JZ   normalize
	LEAQ assignTailMask<>(SB), R12
	MOVQ AX, R13
	DECQ R13
	SHLQ $5, R13
	VMOVDQU (R12)(R13*1), Y14
	VMASKMOVPD (DX), Y14, Y15
	VMASKMOVPD (BX), Y14, Y0
	VMASKMOVPD (BX)(R8*1), Y14, Y1
	VMASKMOVPD (BX)(R8*2), Y14, Y2
	VMASKMOVPD (BX)(R9*1), Y14, Y3
	VMULPD     Y15, Y0, Y0
	VMULPD     Y15, Y1, Y1
	VMULPD     Y15, Y2, Y2
	VMULPD     Y15, Y3, Y3
	VMASKMOVPD Y0, Y14, (BX)
	VMASKMOVPD Y1, Y14, (BX)(R8*1)
	VMASKMOVPD Y2, Y14, (BX)(R8*2)
	VMASKMOVPD Y3, Y14, (BX)(R9*1)
	TRANSPOSE4
	VADDPD     Y0, Y12, Y12
	CMPQ       AX, $2
	JLT        sumtail4
	VADDPD     Y1, Y12, Y12
	CMPQ       AX, $3
	JLT        sumtail4
	VADDPD     Y2, Y12, Y12

sumtail4:
	VMASKMOVPD (BX)(R8*4), Y14, Y0
	VMASKMOVPD (BX)(R10*1), Y14, Y1
	VMASKMOVPD (BX)(R9*2), Y14, Y2
	VMASKMOVPD (BX)(R11*1), Y14, Y3
	VMULPD     Y15, Y0, Y0
	VMULPD     Y15, Y1, Y1
	VMULPD     Y15, Y2, Y2
	VMULPD     Y15, Y3, Y3
	VMASKMOVPD Y0, Y14, (BX)(R8*4)
	VMASKMOVPD Y1, Y14, (BX)(R10*1)
	VMASKMOVPD Y2, Y14, (BX)(R9*2)
	VMASKMOVPD Y3, Y14, (BX)(R11*1)
	TRANSPOSE4
	VADDPD     Y0, Y13, Y13
	CMPQ       AX, $2
	JLT        normalize
	VADDPD     Y1, Y13, Y13
	CMPQ       AX, $3
	JLT        normalize
	VADDPD     Y2, Y13, Y13

normalize:
	// inv = |s| < eps ? 1 : 1/s per row, then broadcast: Y0..Y7 = inv of
	// rows 0..7.
	VBROADCASTSD eps+48(FP), Y11
	VPCMPEQQ     Y10, Y10, Y10
	VPSRLQ       $1, Y10, Y10
	MOVQ         $0x3FF0000000000000, R13
	MOVQ         R13, X9
	VPBROADCASTQ X9, Y9
	VANDPD       Y10, Y12, Y0
	VCMPPD       $1, Y11, Y0, Y0
	VDIVPD       Y12, Y9, Y1
	VBLENDVPD    Y0, Y9, Y1, Y12
	VANDPD       Y10, Y13, Y0
	VCMPPD       $1, Y11, Y0, Y0
	VDIVPD       Y13, Y9, Y1
	VBLENDVPD    Y0, Y9, Y1, Y13
	VPERMPD      $0x00, Y12, Y0
	VPERMPD      $0x55, Y12, Y1
	VPERMPD      $0xAA, Y12, Y2
	VPERMPD      $0xFF, Y12, Y3
	VPERMPD      $0x00, Y13, Y4
	VPERMPD      $0x55, Y13, Y5
	VPERMPD      $0xAA, Y13, Y6
	VPERMPD      $0xFF, Y13, Y7
	MOVQ         SI, BX
	MOVQ         CX, AX
	SHRQ         $2, AX
	JZ           divtail

	PCALIGN $64

divblock:
	VMULPD  (BX), Y0, Y8
	VMULPD  (BX)(R8*1), Y1, Y9
	VMULPD  (BX)(R8*2), Y2, Y10
	VMULPD  (BX)(R9*1), Y3, Y11
	VMOVUPD Y8, (BX)
	VMOVUPD Y9, (BX)(R8*1)
	VMOVUPD Y10, (BX)(R8*2)
	VMOVUPD Y11, (BX)(R9*1)
	VMULPD  (BX)(R8*4), Y4, Y8
	VMULPD  (BX)(R10*1), Y5, Y9
	VMULPD  (BX)(R9*2), Y6, Y10
	VMULPD  (BX)(R11*1), Y7, Y11
	VMOVUPD Y8, (BX)(R8*4)
	VMOVUPD Y9, (BX)(R10*1)
	VMOVUPD Y10, (BX)(R9*2)
	VMOVUPD Y11, (BX)(R11*1)
	ADDQ    $32, BX
	DECQ    AX
	JNZ     divblock

divtail:
	// Y14 still holds the ragged block's mask.
	MOVQ       CX, AX
	ANDQ       $3, AX
	JZ         sweepdone
	VMASKMOVPD (BX), Y14, Y8
	VMASKMOVPD (BX)(R8*1), Y14, Y9
	VMASKMOVPD (BX)(R8*2), Y14, Y10
	VMASKMOVPD (BX)(R9*1), Y14, Y11
	VMULPD     Y0, Y8, Y8
	VMULPD     Y1, Y9, Y9
	VMULPD     Y2, Y10, Y10
	VMULPD     Y3, Y11, Y11
	VMASKMOVPD Y8, Y14, (BX)
	VMASKMOVPD Y9, Y14, (BX)(R8*1)
	VMASKMOVPD Y10, Y14, (BX)(R8*2)
	VMASKMOVPD Y11, Y14, (BX)(R9*1)
	VMASKMOVPD (BX)(R8*4), Y14, Y8
	VMASKMOVPD (BX)(R10*1), Y14, Y9
	VMASKMOVPD (BX)(R9*2), Y14, Y10
	VMASKMOVPD (BX)(R11*1), Y14, Y11
	VMULPD     Y4, Y8, Y8
	VMULPD     Y5, Y9, Y9
	VMULPD     Y6, Y10, Y10
	VMULPD     Y7, Y11, Y11
	VMASKMOVPD Y8, Y14, (BX)(R8*4)
	VMASKMOVPD Y9, Y14, (BX)(R10*1)
	VMASKMOVPD Y10, Y14, (BX)(R9*2)
	VMASKMOVPD Y11, Y14, (BX)(R11*1)

sweepdone:
	VZEROUPPER
	RET

// func addRows4AVX2(acc, rows []float64)
//
// acc[j] = acc[j] + r0[j] + r1[j] + r2[j] + r3[j], left to right, four
// columns per step and the ragged ones one at a time.
TEXT ·addRows4AVX2(SB), NOSPLIT, $0-48
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ rows_base+24(FP), SI
	LEAQ (CX*8), R8
	LEAQ (R8)(R8*2), R9
	MOVQ CX, AX
	SHRQ $2, AX
	JZ   addtail

	PCALIGN $64

addblock:
	VMOVUPD (DI), Y0
	VADDPD  (SI), Y0, Y0
	VADDPD  (SI)(R8*1), Y0, Y0
	VADDPD  (SI)(R8*2), Y0, Y0
	VADDPD  (SI)(R9*1), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    AX
	JNZ     addblock

addtail:
	ANDQ $3, CX
	JZ   adddone

addscalar:
	VMOVSD (DI), X0
	VADDSD (SI), X0, X0
	VADDSD (SI)(R8*1), X0, X0
	VADDSD (SI)(R8*2), X0, X0
	VADDSD (SI)(R9*1), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JNZ    addscalar

adddone:
	VZEROUPPER
	RET
