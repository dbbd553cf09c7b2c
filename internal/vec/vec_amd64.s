#include "textflag.h"

// AVX2 bodies of the vector cores in vec.go. Each walks its output eight
// floats at a time, then finishes with a scalar tail of the same
// instructions in their SS form. Products and sums are separate
// VMULPS/VADDPS: a fused multiply-add would round once where the Go
// bodies round twice, and bit-identity with them is the contract.

// func axpyNAVX2(row, a []float32, off []int, b []float32)
// row[j] += a[t]*b[off[t]+j], t ascending. Entries are consumed four at a
// time — row[j] is loaded once, takes its four adds in order, and is
// stored once — then one at a time.
TEXT ·axpyNAVX2(SB), NOSPLIT, $0-96
	MOVQ row_base+0(FP), DI
	MOVQ row_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ off_base+48(FP), BX
	MOVQ b_base+72(FP), R12
	SHLQ $2, DX              // row length in bytes
	MOVQ DX, R13
	ANDQ $-32, R13           // of which whole 8-float vectors

axpyN4:
	CMPQ         CX, $4
	JB           axpyN1
	VBROADCASTSS 0(SI), Y12
	VBROADCASTSS 4(SI), Y13
	VBROADCASTSS 8(SI), Y14
	VBROADCASTSS 12(SI), Y15
	MOVQ         0(BX), R8
	MOVQ         8(BX), R9
	MOVQ         16(BX), R10
	MOVQ         24(BX), R11
	LEAQ         (R12)(R8*4), R8
	LEAQ         (R12)(R9*4), R9
	LEAQ         (R12)(R10*4), R10
	LEAQ         (R12)(R11*4), R11
	XORQ         AX, AX
	TESTQ        R13, R13
	JE           axpyN4x1

axpyN4x8:
	VMOVUPS (DI)(AX*1), Y0
	VMULPS  (R8)(AX*1), Y12, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R9)(AX*1), Y13, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R10)(AX*1), Y14, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R11)(AX*1), Y15, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R13
	JB      axpyN4x8

axpyN4x1:
	CMPQ   AX, DX
	JAE    axpyN4Next
	VMOVSS (DI)(AX*1), X0
	VMULSS (R8)(AX*1), X12, X1
	VADDSS X1, X0, X0
	VMULSS (R9)(AX*1), X13, X1
	VADDSS X1, X0, X0
	VMULSS (R10)(AX*1), X14, X1
	VADDSS X1, X0, X0
	VMULSS (R11)(AX*1), X15, X1
	VADDSS X1, X0, X0
	VMOVSS X0, (DI)(AX*1)
	ADDQ   $4, AX
	JMP    axpyN4x1

axpyN4Next:
	ADDQ $16, SI
	ADDQ $32, BX
	SUBQ $4, CX
	JMP  axpyN4

axpyN1:
	TESTQ        CX, CX
	JE           axpyNDone
	VBROADCASTSS (SI), Y12
	MOVQ         (BX), R8
	LEAQ         (R12)(R8*4), R8
	XORQ         AX, AX
	TESTQ        R13, R13
	JE           axpyN1x1

axpyN1x8:
	VMULPS  (R8)(AX*1), Y12, Y1
	VADDPS  (DI)(AX*1), Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R13
	JB      axpyN1x8

axpyN1x1:
	CMPQ   AX, DX
	JAE    axpyN1Next
	VMULSS (R8)(AX*1), X12, X1
	VADDSS (DI)(AX*1), X1, X1
	VMOVSS X1, (DI)(AX*1)
	ADDQ   $4, AX
	JMP    axpyN1x1

axpyN1Next:
	ADDQ $4, SI
	ADDQ $8, BX
	DECQ CX
	JMP  axpyN1

axpyNDone:
	VZEROUPPER
	RET

// func dwPixelAVX2(dst, x, w []float32, xRowStride, xTapStride, wRowStride, rows, taps int)
// dst[ch] += x[r*xRowStride+t*xTapStride+ch] * w[r*wRowStride+t*len(dst)+ch],
// r then t ascending, rows >= 1, taps >= 1. Eight channels of dst stay in
// Y0 across the whole tap rectangle.
TEXT ·dwPixelAVX2(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ xRowStride+72(FP), R8
	MOVQ xTapStride+80(FP), R9
	MOVQ wRowStride+88(FP), R10
	SHLQ $2, DX                 // all four in bytes; DX is also w's tap stride
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	XORQ AX, AX                 // channel offset

dwPixel8:
	LEAQ    32(AX), R13
	CMPQ    R13, DX
	JA      dwPixel1
	VMOVUPS (DI)(AX*1), Y0
	MOVQ    x_base+24(FP), R11
	MOVQ    w_base+48(FP), R12
	ADDQ    AX, R11
	ADDQ    AX, R12
	MOVQ    rows+96(FP), R13

dwPixel8Row:
	MOVQ R11, SI
	MOVQ R12, BX
	MOVQ taps+104(FP), CX

dwPixel8Tap:
	VMOVUPS (SI), Y1
	VMULPS  (BX), Y1, Y1
	VADDPS  Y1, Y0, Y0
	ADDQ    R9, SI
	ADDQ    DX, BX
	DECQ    CX
	JNZ     dwPixel8Tap
	ADDQ    R8, R11
	ADDQ    R10, R12
	DECQ    R13
	JNZ     dwPixel8Row
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     dwPixel8

dwPixel1:
	CMPQ   AX, DX
	JAE    dwPixelDone
	VMOVSS (DI)(AX*1), X0
	MOVQ   x_base+24(FP), R11
	MOVQ   w_base+48(FP), R12
	ADDQ   AX, R11
	ADDQ   AX, R12
	MOVQ   rows+96(FP), R13

dwPixel1Row:
	MOVQ R11, SI
	MOVQ R12, BX
	MOVQ taps+104(FP), CX

dwPixel1Tap:
	VMOVSS (SI), X1
	VMULSS (BX), X1, X1
	VADDSS X1, X0, X0
	ADDQ   R9, SI
	ADDQ   DX, BX
	DECQ   CX
	JNZ    dwPixel1Tap
	ADDQ   R8, R11
	ADDQ   R10, R12
	DECQ   R13
	JNZ    dwPixel1Row
	VMOVSS X0, (DI)(AX*1)
	ADDQ   $4, AX
	JMP    dwPixel1

dwPixelDone:
	VZEROUPPER
	RET

DATA six<>+0(SB)/4, $6.0
GLOBL six<>(SB), RODATA|NOPTR, $4

// func biasActAVX2(dst, bias []float32, kind int)
// dst[i] = act(dst[i] + bias[i]), len(bias) == len(dst); kind is an
// Act: 0 none, 1 relu, 2 relu6.
//
// VMAXPS/VMINPS return their second source when either input is NaN or
// both are zero, so operand order reproduces the Go branches exactly:
// relu is max(v, 0) — NaN and -0 give +0, as !(v > 0) does — and relu6 is
// min(6, max(0, v)) — NaN and -0 pass through, as v < 0 / v > 6 both
// being false does. (In Go operand order the second source comes first.)
TEXT ·biasActAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         bias_base+24(FP), SI
	MOVQ         kind+48(FP), AX
	VXORPS       Y14, Y14, Y14
	VBROADCASTSS six<>(SB), Y15

biasAct8:
	CMPQ    CX, $8
	JB      biasAct1
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	CMPQ    AX, $2
	JNE     biasAct8NotRelu6
	VMAXPS  Y0, Y14, Y0
	VMINPS  Y0, Y15, Y0

biasAct8Store:
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     biasAct8

biasAct8NotRelu6:
	CMPQ   AX, $1
	JNE    biasAct8Store
	VMAXPS Y14, Y0, Y0
	JMP    biasAct8Store

biasAct1:
	TESTQ  CX, CX
	JE     biasActDone
	VMOVSS (DI), X0
	VADDSS (SI), X0, X0
	CMPQ   AX, $2
	JNE    biasAct1NotRelu6
	VMAXSS X0, X14, X0
	VMINSS X0, X15, X0

biasAct1Store:
	VMOVSS X0, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    biasAct1

biasAct1NotRelu6:
	CMPQ   AX, $1
	JNE    biasAct1Store
	VMAXSS X14, X0, X0
	JMP    biasAct1Store

biasActDone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
// Reads XCR0, the OS-enabled extended state mask.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
