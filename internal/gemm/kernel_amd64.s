//go:build amd64

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func sgemm6x16(kc int64, ap, bp, c *float32, ldc int64)
//
// C[0:6][0:16] += Ap·Bp over kc steps. Ap is packed 6 floats per step
// (column of the A micro-panel), Bp 16 floats per step (row of the B
// micro-panel), C has row stride ldc floats. Twelve ymm accumulators hold
// the 6×16 tile; each step is 2 B loads, 6 A broadcasts and 12 FMAs.
TEXT ·sgemm6x16(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), AX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ c+24(FP), CX
	MOVQ ldc+32(FP), DX
	SHLQ $2, DX                  // row stride in bytes

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

	TESTQ AX, AX
	JZ    sdone

sloop:
	VMOVUPS (BX), Y12            // B[p][0:8]
	VMOVUPS 32(BX), Y13          // B[p][8:16]

	VBROADCASTSS (SI), Y14
	VFMADD231PS  Y12, Y14, Y0
	VFMADD231PS  Y13, Y14, Y1
	VBROADCASTSS 4(SI), Y14
	VFMADD231PS  Y12, Y14, Y2
	VFMADD231PS  Y13, Y14, Y3
	VBROADCASTSS 8(SI), Y14
	VFMADD231PS  Y12, Y14, Y4
	VFMADD231PS  Y13, Y14, Y5
	VBROADCASTSS 12(SI), Y14
	VFMADD231PS  Y12, Y14, Y6
	VFMADD231PS  Y13, Y14, Y7
	VBROADCASTSS 16(SI), Y14
	VFMADD231PS  Y12, Y14, Y8
	VFMADD231PS  Y13, Y14, Y9
	VBROADCASTSS 20(SI), Y14
	VFMADD231PS  Y12, Y14, Y10
	VFMADD231PS  Y13, Y14, Y11

	ADDQ $24, SI
	ADDQ $64, BX
	DECQ AX
	JNZ  sloop

sdone:
	VADDPS  (CX), Y0, Y0         // C += accumulators, row by row
	VMOVUPS Y0, (CX)
	VADDPS  32(CX), Y1, Y1
	VMOVUPS Y1, 32(CX)
	ADDQ    DX, CX
	VADDPS  (CX), Y2, Y2
	VMOVUPS Y2, (CX)
	VADDPS  32(CX), Y3, Y3
	VMOVUPS Y3, 32(CX)
	ADDQ    DX, CX
	VADDPS  (CX), Y4, Y4
	VMOVUPS Y4, (CX)
	VADDPS  32(CX), Y5, Y5
	VMOVUPS Y5, 32(CX)
	ADDQ    DX, CX
	VADDPS  (CX), Y6, Y6
	VMOVUPS Y6, (CX)
	VADDPS  32(CX), Y7, Y7
	VMOVUPS Y7, 32(CX)
	ADDQ    DX, CX
	VADDPS  (CX), Y8, Y8
	VMOVUPS Y8, (CX)
	VADDPS  32(CX), Y9, Y9
	VMOVUPS Y9, 32(CX)
	ADDQ    DX, CX
	VADDPS  (CX), Y10, Y10
	VMOVUPS Y10, (CX)
	VADDPS  32(CX), Y11, Y11
	VMOVUPS Y11, 32(CX)
	VZEROUPPER
	RET

// func sgemm14x32(kc int64, ap, bp, c *float32, ldc int64)
//
// C[0:14][0:32] += Ap·Bp over kc steps on AVX-512F. Ap is packed 14 floats
// per step, Bp 32 floats per step, C has row stride ldc floats. Z0-Z27 hold
// the 14×32 tile, two zmm per row; each step is 2 B loads (Z28, Z29), 14 A
// broadcasts (alternating Z30, Z31) and 28 FMAs. Every C element sums the
// same products in the same order as sgemm6x16, so the two agree bit for
// bit. Zeroing uses VPXORD: VXORPS on zmm needs AVX512DQ.
#define S14_ROW(off, bc, c0, c1) \
	VBROADCASTSS off(SI), bc; \
	VFMADD231PS  Z28, bc, c0; \
	VFMADD231PS  Z29, bc, c1

#define S14_STORE(c0, c1) \
	VADDPS  (CX), c0, c0; \
	VMOVUPS c0, (CX); \
	VADDPS  64(CX), c1, c1; \
	VMOVUPS c1, 64(CX); \
	ADDQ    DX, CX

TEXT ·sgemm14x32(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), AX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ c+24(FP), CX
	MOVQ ldc+32(FP), DX
	SHLQ $2, DX                  // row stride in bytes

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	VPXORD Z20, Z20, Z20
	VPXORD Z21, Z21, Z21
	VPXORD Z22, Z22, Z22
	VPXORD Z23, Z23, Z23
	VPXORD Z24, Z24, Z24
	VPXORD Z25, Z25, Z25
	VPXORD Z26, Z26, Z26
	VPXORD Z27, Z27, Z27

	TESTQ AX, AX
	JZ    s14done

s14loop:
	VMOVUPS (BX), Z28            // B[p][0:16]
	VMOVUPS 64(BX), Z29          // B[p][16:32]
	S14_ROW(0, Z30, Z0, Z1)
	S14_ROW(4, Z31, Z2, Z3)
	S14_ROW(8, Z30, Z4, Z5)
	S14_ROW(12, Z31, Z6, Z7)
	S14_ROW(16, Z30, Z8, Z9)
	S14_ROW(20, Z31, Z10, Z11)
	S14_ROW(24, Z30, Z12, Z13)
	S14_ROW(28, Z31, Z14, Z15)
	S14_ROW(32, Z30, Z16, Z17)
	S14_ROW(36, Z31, Z18, Z19)
	S14_ROW(40, Z30, Z20, Z21)
	S14_ROW(44, Z31, Z22, Z23)
	S14_ROW(48, Z30, Z24, Z25)
	S14_ROW(52, Z31, Z26, Z27)
	ADDQ $56, SI
	ADDQ $128, BX
	DECQ AX
	JNZ  s14loop

s14done:
	S14_STORE(Z0, Z1)            // C += accumulators, row by row
	S14_STORE(Z2, Z3)
	S14_STORE(Z4, Z5)
	S14_STORE(Z6, Z7)
	S14_STORE(Z8, Z9)
	S14_STORE(Z10, Z11)
	S14_STORE(Z12, Z13)
	S14_STORE(Z14, Z15)
	S14_STORE(Z16, Z17)
	S14_STORE(Z18, Z19)
	S14_STORE(Z20, Z21)
	S14_STORE(Z22, Z23)
	S14_STORE(Z24, Z25)
	S14_STORE(Z26, Z27)
	VZEROUPPER
	RET

// func dgemm6x8(kc int64, ap, bp, c *float64, ldc int64)
//
// C[0:6][0:8] += Ap·Bp over kc steps, float64. Same structure as the
// float32 kernel: 12 accumulators, 2 B loads, 6 broadcasts, 12 FMAs per
// step.
TEXT ·dgemm6x8(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), AX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ c+24(FP), CX
	MOVQ ldc+32(FP), DX
	SHLQ $3, DX                  // row stride in bytes

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

	TESTQ AX, AX
	JZ    ddone

dloop:
	VMOVUPD (BX), Y12            // B[p][0:4]
	VMOVUPD 32(BX), Y13          // B[p][4:8]

	VBROADCASTSD (SI), Y14
	VFMADD231PD  Y12, Y14, Y0
	VFMADD231PD  Y13, Y14, Y1
	VBROADCASTSD 8(SI), Y14
	VFMADD231PD  Y12, Y14, Y2
	VFMADD231PD  Y13, Y14, Y3
	VBROADCASTSD 16(SI), Y14
	VFMADD231PD  Y12, Y14, Y4
	VFMADD231PD  Y13, Y14, Y5
	VBROADCASTSD 24(SI), Y14
	VFMADD231PD  Y12, Y14, Y6
	VFMADD231PD  Y13, Y14, Y7
	VBROADCASTSD 32(SI), Y14
	VFMADD231PD  Y12, Y14, Y8
	VFMADD231PD  Y13, Y14, Y9
	VBROADCASTSD 40(SI), Y14
	VFMADD231PD  Y12, Y14, Y10
	VFMADD231PD  Y13, Y14, Y11

	ADDQ $48, SI
	ADDQ $64, BX
	DECQ AX
	JNZ  dloop

ddone:
	VADDPD  (CX), Y0, Y0
	VMOVUPD Y0, (CX)
	VADDPD  32(CX), Y1, Y1
	VMOVUPD Y1, 32(CX)
	ADDQ    DX, CX
	VADDPD  (CX), Y2, Y2
	VMOVUPD Y2, (CX)
	VADDPD  32(CX), Y3, Y3
	VMOVUPD Y3, 32(CX)
	ADDQ    DX, CX
	VADDPD  (CX), Y4, Y4
	VMOVUPD Y4, (CX)
	VADDPD  32(CX), Y5, Y5
	VMOVUPD Y5, 32(CX)
	ADDQ    DX, CX
	VADDPD  (CX), Y6, Y6
	VMOVUPD Y6, (CX)
	VADDPD  32(CX), Y7, Y7
	VMOVUPD Y7, 32(CX)
	ADDQ    DX, CX
	VADDPD  (CX), Y8, Y8
	VMOVUPD Y8, (CX)
	VADDPD  32(CX), Y9, Y9
	VMOVUPD Y9, 32(CX)
	ADDQ    DX, CX
	VADDPD  (CX), Y10, Y10
	VMOVUPD Y10, (CX)
	VADDPD  32(CX), Y11, Y11
	VMOVUPD Y11, 32(CX)
	VZEROUPPER
	RET

// Matrix-vector kernels: y[0:8] = A[0:8][0:n]·x for eight rows of A at row
// stride lda elements. They reproduce the portable loop's rounding bit for
// bit: each row keeps one 4-lane float64 accumulator whose lane k sums the
// products p ≡ k (mod 4) in order (the portable s0..s3); multiply and add
// are separate instructions (no FMA); tail products go into lane 0; the
// lanes sum as ((s0+s1)+s2)+s3. Eight rows share each load of x.
//
// Registers: Y0-Y7 accumulate rows 0-7; SI walks rows 0-3 and DI rows 4-7
// (DX = row stride in bytes, R8 = 3·DX); BX walks x; AX counts 4-element
// steps and CX the 0-3 tail elements.

// A tail product is added to a whole accumulator: the scalar load and
// multiply leave it in lane 0 of Y9 with lanes 1-3 at +0, and adding +0 is
// exact here, because an accumulator starts at +0 and a sum is -0 only when
// both addends are, so no lane is ever -0.

// MV_REDUCE4 sums the lanes of four row accumulators A-D in the fixed order
// and leaves (rowA, rowB, rowC, rowD) in Y12: unpacking and swapping halves
// transposes the 4×4 block so that Y12..Y15 hold lanes 0..3 of the four
// rows, then Y12 = ((L0+L1)+L2)+L3. Clobbers Y8-Y15.
#define MV_REDUCE4(A, B, C, D) \
	VUNPCKLPD  B, A, Y8; \
	VUNPCKHPD  B, A, Y9; \
	VUNPCKLPD  D, C, Y10; \
	VUNPCKHPD  D, C, Y11; \
	VPERM2F128 $0x20, Y10, Y8, Y12; \
	VPERM2F128 $0x20, Y11, Y9, Y13; \
	VPERM2F128 $0x31, Y10, Y8, Y14; \
	VPERM2F128 $0x31, Y11, Y9, Y15; \
	VADDPD     Y13, Y12, Y12; \
	VADDPD     Y14, Y12, Y12; \
	VADDPD     Y15, Y12, Y12

// MV_SETUP derives the row pointers and step counts from the arguments in
// AX (n) and DX (lda, scaled to bytes by 1<<shift), and zeroes Y0-Y7.
#define MV_SETUP(shift) \
	SHLQ   $shift, DX; \
	LEAQ   (DX)(DX*2), R8; \
	LEAQ   (SI)(DX*4), DI; \
	MOVQ   AX, CX; \
	ANDQ   $3, CX; \
	SHRQ   $2, AX; \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

// func matvec64x8(n int64, a *float64, lda int64, x, y *float64)
TEXT ·matvec64x8(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), AX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), DX
	MOVQ x+24(FP), BX
	MOVQ y+32(FP), R9
	MV_SETUP(3)
	TESTQ AX, AX
	JZ    d8tail

d8loop:
	VMOVUPD (BX), Y8
	VMULPD  (SI), Y8, Y9
	VADDPD  Y9, Y0, Y0
	VMULPD  (SI)(DX*1), Y8, Y10
	VADDPD  Y10, Y1, Y1
	VMULPD  (SI)(DX*2), Y8, Y11
	VADDPD  Y11, Y2, Y2
	VMULPD  (SI)(R8*1), Y8, Y12
	VADDPD  Y12, Y3, Y3
	VMULPD  (DI), Y8, Y13
	VADDPD  Y13, Y4, Y4
	VMULPD  (DI)(DX*1), Y8, Y14
	VADDPD  Y14, Y5, Y5
	VMULPD  (DI)(DX*2), Y8, Y15
	VADDPD  Y15, Y6, Y6
	VMULPD  (DI)(R8*1), Y8, Y9
	VADDPD  Y9, Y7, Y7
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, BX
	DECQ    AX
	JNZ     d8loop

d8tail:
	TESTQ CX, CX
	JZ    d8sum

d8tailloop:
	VMOVSD (BX), X8
	VMULSD (SI), X8, X9
	VADDPD Y9, Y0, Y0
	VMULSD (SI)(DX*1), X8, X9
	VADDPD Y9, Y1, Y1
	VMULSD (SI)(DX*2), X8, X9
	VADDPD Y9, Y2, Y2
	VMULSD (SI)(R8*1), X8, X9
	VADDPD Y9, Y3, Y3
	VMULSD (DI), X8, X9
	VADDPD Y9, Y4, Y4
	VMULSD (DI)(DX*1), X8, X9
	VADDPD Y9, Y5, Y5
	VMULSD (DI)(DX*2), X8, X9
	VADDPD Y9, Y6, Y6
	VMULSD (DI)(R8*1), X8, X9
	VADDPD Y9, Y7, Y7
	ADDQ   $8, SI
	ADDQ   $8, DI
	ADDQ   $8, BX
	DECQ   CX
	JNZ    d8tailloop

d8sum:
	MV_REDUCE4(Y0, Y1, Y2, Y3)
	VMOVUPD Y12, (R9)
	MV_REDUCE4(Y4, Y5, Y6, Y7)
	VMOVUPD Y12, 32(R9)
	VZEROUPPER
	RET

// func matvec32x8(n int64, a *float32, lda int64, x, y *float32)
//
// The float32 form widens A and x to float64 before the multiply, as the
// portable loop does, and rounds each row's sum to float32 once.
TEXT ·matvec32x8(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), AX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), DX
	MOVQ x+24(FP), BX
	MOVQ y+32(FP), R9
	MV_SETUP(2)
	TESTQ AX, AX
	JZ    s8tail

s8loop:
	VCVTPS2PD (BX), Y8
	VCVTPS2PD (SI), Y9
	VMULPD    Y8, Y9, Y9
	VADDPD    Y9, Y0, Y0
	VCVTPS2PD (SI)(DX*1), Y10
	VMULPD    Y8, Y10, Y10
	VADDPD    Y10, Y1, Y1
	VCVTPS2PD (SI)(DX*2), Y11
	VMULPD    Y8, Y11, Y11
	VADDPD    Y11, Y2, Y2
	VCVTPS2PD (SI)(R8*1), Y12
	VMULPD    Y8, Y12, Y12
	VADDPD    Y12, Y3, Y3
	VCVTPS2PD (DI), Y13
	VMULPD    Y8, Y13, Y13
	VADDPD    Y13, Y4, Y4
	VCVTPS2PD (DI)(DX*1), Y14
	VMULPD    Y8, Y14, Y14
	VADDPD    Y14, Y5, Y5
	VCVTPS2PD (DI)(DX*2), Y15
	VMULPD    Y8, Y15, Y15
	VADDPD    Y15, Y6, Y6
	VCVTPS2PD (DI)(R8*1), Y9
	VMULPD    Y8, Y9, Y9
	VADDPD    Y9, Y7, Y7
	ADDQ      $16, SI
	ADDQ      $16, DI
	ADDQ      $16, BX
	DECQ      AX
	JNZ       s8loop

s8tail:
	TESTQ CX, CX
	JZ    s8sum

s8tailloop:
	VMOVSS    (BX), X8
	VCVTSS2SD X8, X8, X8
	VMOVSS    (SI), X9
	VCVTSS2SD X9, X9, X9
	VMULSD    X8, X9, X9
	VADDPD Y9, Y0, Y0
	VMOVSS    (SI)(DX*1), X9
	VCVTSS2SD X9, X9, X9
	VMULSD    X8, X9, X9
	VADDPD Y9, Y1, Y1
	VMOVSS    (SI)(DX*2), X9
	VCVTSS2SD X9, X9, X9
	VMULSD    X8, X9, X9
	VADDPD Y9, Y2, Y2
	VMOVSS    (SI)(R8*1), X9
	VCVTSS2SD X9, X9, X9
	VMULSD    X8, X9, X9
	VADDPD Y9, Y3, Y3
	VMOVSS    (DI), X9
	VCVTSS2SD X9, X9, X9
	VMULSD    X8, X9, X9
	VADDPD Y9, Y4, Y4
	VMOVSS    (DI)(DX*1), X9
	VCVTSS2SD X9, X9, X9
	VMULSD    X8, X9, X9
	VADDPD Y9, Y5, Y5
	VMOVSS    (DI)(DX*2), X9
	VCVTSS2SD X9, X9, X9
	VMULSD    X8, X9, X9
	VADDPD Y9, Y6, Y6
	VMOVSS    (DI)(R8*1), X9
	VCVTSS2SD X9, X9, X9
	VMULSD    X8, X9, X9
	VADDPD Y9, Y7, Y7
	ADDQ      $4, SI
	ADDQ      $4, DI
	ADDQ      $4, BX
	DECQ      CX
	JNZ       s8tailloop

s8sum:
	MV_REDUCE4(Y0, Y1, Y2, Y3)
	VCVTPD2PSY Y12, X12
	VMOVUPS    X12, (R9)
	MV_REDUCE4(Y4, Y5, Y6, Y7)
	VCVTPD2PSY Y12, X12
	VMOVUPS    X12, 16(R9)
	VZEROUPPER
	RET
