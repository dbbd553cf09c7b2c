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

DATA negZero<>+0(SB)/4, $0x80000000
GLOBL negZero<>(SB), RODATA|NOPTR, $4

// One row of axpyRowsAVX2's step: the lhs element at addr, broadcast,
// times the eight rhs floats in Y8, added to acc — or -0 added, which
// changes nothing, where the lhs element is ±0 (predicate 4, not-equal
// unordered: a NaN lhs is multiplied).
#define AXPY_ROW(addr, acc) \
	VBROADCASTSS addr, Y9         \
	VCMPPS       $4, Y14, Y9, Y10 \
	VMULPS       Y8, Y9, Y9       \
	VBLENDVPS    Y10, Y9, Y15, Y9 \
	VADDPS       Y9, acc, acc

// func axpyRowsAVX2(acc []float32, n int, a []float32, iStride, tStride, k int, b []float32)
// acc[i*n+j] += a[i*iStride+t*tStride] * b[t*n+j] where the a element is
// not zero, t ascending; n a multiple of 8, len(acc) a multiple of n. The
// rows are taken eight columns at a time, four rows together and then one:
// a tile's accumulators stay in Y0-Y3 across all k steps.
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-104
	MOVQ         n+24(FP), R11
	MOVQ         iStride+56(FP), R8
	MOVQ         tStride+64(FP), R10
	SHLQ         $2, R11             // n, iStride and tStride in bytes
	SHLQ         $2, R8
	SHLQ         $2, R10
	LEAQ         (R8)(R8*2), R9      // 3*iStride
	LEAQ         (R11)(R11*2), DI    // 3*n
	VXORPS       Y14, Y14, Y14
	VBROADCASTSS negZero<>(SB), Y15
	XORQ         R12, R12            // column offset

axpyRowsCols:
	CMPQ R12, R11
	JAE  axpyRowsDone
	MOVQ acc_base+0(FP), AX
	ADDQ R12, AX                     // the tile's first accumulator
	MOVQ a_base+32(FP), R13          // and its first lhs element
	MOVQ acc_len+8(FP), DX
	SHLQ $2, DX                      // bytes of rows still to do

axpyRows4:
	LEAQ    (R11*4), CX
	CMPQ    DX, CX
	JB      axpyRows1
	VMOVUPS (AX), Y0
	VMOVUPS (AX)(R11*1), Y1
	VMOVUPS (AX)(R11*2), Y2
	VMOVUPS (AX)(DI*1), Y3
	MOVQ    R13, SI
	MOVQ    b_base+80(FP), BX
	ADDQ    R12, BX
	MOVQ    k+72(FP), CX

axpyRows4Step:
	VMOVUPS (BX), Y8
	AXPY_ROW((SI), Y0)
	AXPY_ROW((SI)(R8*1), Y1)
	AXPY_ROW((SI)(R8*2), Y2)
	AXPY_ROW((SI)(R9*1), Y3)
	ADDQ    R10, SI
	ADDQ    R11, BX
	DECQ    CX
	JNZ     axpyRows4Step
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, (AX)(R11*1)
	VMOVUPS Y2, (AX)(R11*2)
	VMOVUPS Y3, (AX)(DI*1)
	LEAQ    (AX)(R11*4), AX
	LEAQ    (R13)(R8*4), R13
	LEAQ    (R11*4), CX
	SUBQ    CX, DX
	JMP     axpyRows4

axpyRows1:
	CMPQ    DX, R11
	JB      axpyRowsNextCols
	VMOVUPS (AX), Y0
	MOVQ    R13, SI
	MOVQ    b_base+80(FP), BX
	ADDQ    R12, BX
	MOVQ    k+72(FP), CX

axpyRows1Step:
	VMOVUPS (BX), Y8
	AXPY_ROW((SI), Y0)
	ADDQ    R10, SI
	ADDQ    R11, BX
	DECQ    CX
	JNZ     axpyRows1Step
	VMOVUPS Y0, (AX)
	ADDQ    R11, AX
	ADDQ    R8, R13
	SUBQ    R11, DX
	JMP     axpyRows1

axpyRowsNextCols:
	ADDQ $32, R12
	JMP  axpyRowsCols

axpyRowsDone:
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

// What biasActAVX2 does to each value, as macros so that each of its loops
// is specialised and takes one branch per eight values: the optional bias
// add (the pointer in SI) and the activation on register R, with Y14/X14
// holding 0 and Y15/X15 holding 6. The one-lane forms work on X registers,
// whose upper lanes are never stored.
#define BIAS8 VADDPS (SI), Y0, Y0; ADDQ $32, SI
#define BIAS1 VADDSS (SI), X0, X0; ADDQ $4, SI
#define NO_BIAS
#define ACT_NONE(R, Z, S)
#define ACT_RELU(R, Z, S) VMAXPS Z, R, R
#define ACT_RELU6(R, Z, S) VMAXPS R, Z, R; VMINPS R, S, R

// One of biasActAVX2's loops: dst[i] = ACT(x[i] + BIAS), eight values at a
// time and then one.
#define BIAS_ACT(B8, B1, ACT, v8, v1) \
v8:                           \
	CMPQ    CX, $8            \
	JB      v1                \
	VMOVUPS (R8), Y0          \
	B8                        \
	ACT(Y0, Y14, Y15)         \
	VMOVUPS Y0, (DI)          \
	ADDQ    $32, R8           \
	ADDQ    $32, DI           \
	SUBQ    $8, CX            \
	JMP     v8                \
v1:                           \
	TESTQ   CX, CX            \
	JE      biasActDone       \
	VMOVSS  (R8), X0          \
	B1                        \
	ACT(X0, X14, X15)         \
	VMOVSS  X0, (DI)          \
	ADDQ    $4, R8            \
	ADDQ    $4, DI            \
	DECQ    CX                \
	JMP     v1

// func biasActAVX2(dst, x, bias []float32, kind int)
// dst[i] = act(x[i] + bias[i]), or act(x[i]) when bias is empty — the add is
// skipped, not made with zeros, so a -0 stays -0; len(x) == len(dst), kind
// is an Act: 0 none, 1 relu, 2 relu6. BiasAct and the ReLU rows both run
// here, on the one copy of each activation above.
//
// VMAXPS/VMINPS return their second source when either input is NaN or
// both are zero, so operand order reproduces the Go branches exactly:
// relu is max(v, 0) — NaN and -0 give +0, as !(v > 0) does — and relu6 is
// min(6, max(0, v)) — NaN and -0 pass through, as v < 0 / v > 6 both
// being false does. (In Go operand order the second source comes first.)
TEXT ·biasActAVX2(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         x_base+24(FP), R8
	MOVQ         bias_base+48(FP), SI
	MOVQ         bias_len+56(FP), DX
	MOVQ         kind+72(FP), AX
	VXORPS       Y14, Y14, Y14
	VBROADCASTSS six<>(SB), Y15
	TESTQ        DX, DX
	JE           biasActNoBias
	CMPQ         AX, $1
	JB           biasNone8
	JE           biasRelu8
	JMP          biasRelu68

biasActNoBias:
	CMPQ AX, $1
	JB   none8
	JE   relu8
	JMP  relu68

	BIAS_ACT(BIAS8, BIAS1, ACT_NONE, biasNone8, biasNone1)
	BIAS_ACT(BIAS8, BIAS1, ACT_RELU, biasRelu8, biasRelu1)
	BIAS_ACT(BIAS8, BIAS1, ACT_RELU6, biasRelu68, biasRelu61)
	BIAS_ACT(NO_BIAS, NO_BIAS, ACT_NONE, none8, none1)
	BIAS_ACT(NO_BIAS, NO_BIAS, ACT_RELU, relu8, relu1)
	BIAS_ACT(NO_BIAS, NO_BIAS, ACT_RELU6, relu68, relu61)

biasActDone:
	VZEROUPPER
	RET

DATA one<>+0(SB)/4, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $4

// func stepAVX2(dst, x []float32, alpha float32)
// dst[i] = x[i] > 0 ? 1 : alpha, a NaN x[i] itself. Predicate 0x1e
// (greater-than, ordered) is false on a NaN and on ±0, so those lanes take
// alpha; predicate 3 (unordered) against itself then finds the NaNs, and
// the blend puts their bits back unchanged.
TEXT ·stepAVX2(SB), NOSPLIT, $0-52
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSS alpha+48(FP), Y13
	VBROADCASTSS one<>(SB), Y12
	VXORPS       Y14, Y14, Y14

step8:
	CMPQ      CX, $8
	JB        step1
	VMOVUPS   (SI), Y0
	VCMPPS    $0x1e, Y14, Y0, Y1
	VBLENDVPS Y1, Y12, Y13, Y2
	VCMPPS    $3, Y0, Y0, Y1
	VBLENDVPS Y1, Y0, Y2, Y2
	VMOVUPS   Y2, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $8, CX
	JMP       step8

step1:
	TESTQ     CX, CX
	JE        stepDone
	VMOVSS    (SI), X0
	VCMPSS    $0x1e, X14, X0, X1
	VBLENDVPS X1, X12, X13, X2
	VCMPSS    $3, X0, X0, X1
	VBLENDVPS X1, X0, X2, X2
	VMOVSS    X2, (DI)
	ADDQ      $4, SI
	ADDQ      $4, DI
	DECQ      CX
	JMP       step1

stepDone:
	VZEROUPPER
	RET

// func batchNormAVX2(dst, x, mean, sd, scale, offset []float32, phase int)
// dst[i] = ((x[i] - mean[k]) / sd[k]) * scale[k] + offset[k], k = (phase+i)
// mod len(mean): four separate operations, each rounded, as the Go body's.
// The range is walked in runs that end at a pixel's last channel (the
// parameters' offset AX wraps to 0 there) or at dst's end, eight channels
// at a time and then one.
TEXT ·batchNormAVX2(SB), NOSPLIT, $0-152
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ mean_base+48(FP), R8
	MOVQ mean_len+56(FP), DX
	MOVQ sd_base+72(FP), R9
	MOVQ scale_base+96(FP), R10
	MOVQ offset_base+120(FP), R11
	MOVQ phase+144(FP), AX
	SHLQ $2, CX                      // all three in bytes
	SHLQ $2, DX
	SHLQ $2, AX

batchNormRun:
	TESTQ   CX, CX
	JE      batchNormDone
	XORQ    R12, R12
	CMPQ    AX, DX
	CMOVQEQ R12, AX                  // a new pixel starts at channel 0
	LEAQ    (AX)(CX*1), BX
	CMPQ    DX, BX
	CMOVQLT DX, BX                   // the run ends at the pixel's end or dst's
	SUBQ    BX, CX
	ADDQ    AX, CX

batchNorm8:
	LEAQ    32(AX), R12
	CMPQ    R12, BX
	JA      batchNorm1
	VMOVUPS (SI), Y0
	VSUBPS  (R8)(AX*1), Y0, Y0
	VDIVPS  (R9)(AX*1), Y0, Y0
	VMULPS  (R10)(AX*1), Y0, Y0
	VADDPS  (R11)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	MOVQ    R12, AX
	JMP     batchNorm8

batchNorm1:
	CMPQ   AX, BX
	JAE    batchNormRun
	VMOVSS (SI), X0
	VSUBSS (R8)(AX*1), X0, X0
	VDIVSS (R9)(AX*1), X0, X0
	VMULSS (R10)(AX*1), X0, X0
	VADDSS (R11)(AX*1), X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	ADDQ   $4, AX
	JMP    batchNorm1

batchNormDone:
	VZEROUPPER
	RET

// One run of binaryAVX2: dst[j] = a[j] op x[j] for the BX bytes at DI, SI
// and DX, eight floats at a time and then one.
#define BINARY_RUN(VOP, SOP, vec, one) \
vec:                                \
	LEAQ    32(AX), R14             \
	CMPQ    R14, BX                 \
	JA      one                     \
	VMOVUPS (SI)(AX*1), Y0          \
	VOP     (DX)(AX*1), Y0, Y0      \
	VMOVUPS Y0, (DI)(AX*1)          \
	MOVQ    R14, AX                 \
	JMP     vec                     \
one:                                \
	CMPQ    AX, BX                  \
	JAE     binaryNext              \
	VMOVSS  (SI)(AX*1), X0          \
	SOP     (DX)(AX*1), X0, X0      \
	VMOVSS  X0, (DI)(AX*1)          \
	ADDQ    $4, AX                  \
	JMP     one

// func binaryAVX2(op int, dst, a, x []float32)
// dst[i] = a[i mod len(a)] op x[i mod len(x)], op a BinOp: 0 add, 1
// subtract, 2 multiply, 3 divide. dst is walked in runs that end where an
// operand wraps (R10 and R13 are a's and x's offsets, R9 and R12 their
// lengths, all in bytes) or where dst ends.
TEXT ·binaryAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	MOVQ a_base+32(FP), R8
	MOVQ a_len+40(FP), R9
	MOVQ x_base+56(FP), R11
	MOVQ x_len+64(FP), R12
	SHLQ $2, CX
	SHLQ $2, R9
	SHLQ $2, R12
	XORQ R10, R10
	XORQ R13, R13

binaryRun:
	TESTQ   CX, CX
	JE      binaryDone
	XORQ    R14, R14
	CMPQ    R10, R9
	CMOVQEQ R14, R10
	CMPQ    R13, R12
	CMOVQEQ R14, R13
	MOVQ    R9, BX
	SUBQ    R10, BX
	MOVQ    R12, R14
	SUBQ    R13, R14
	CMPQ    R14, BX
	CMOVQLT R14, BX
	CMPQ    CX, BX
	CMOVQLT CX, BX
	LEAQ    (R8)(R10*1), SI
	LEAQ    (R11)(R13*1), DX
	ADDQ    BX, R10
	ADDQ    BX, R13
	SUBQ    BX, CX
	XORQ    AX, AX
	MOVQ    op+0(FP), R14
	CMPQ    R14, $1
	JB      binaryAdd8
	JE      binarySub8
	CMPQ    R14, $3
	JB      binaryMul8
	JMP     binaryDiv8

	BINARY_RUN(VADDPS, VADDSS, binaryAdd8, binaryAdd1)
	BINARY_RUN(VSUBPS, VSUBSS, binarySub8, binarySub1)
	BINARY_RUN(VMULPS, VMULSS, binaryMul8, binaryMul1)
	BINARY_RUN(VDIVPS, VDIVSS, binaryDiv8, binaryDiv1)

binaryNext:
	ADDQ BX, DI
	JMP  binaryRun

binaryDone:
	VZEROUPPER
	RET

DATA negInf<>+0(SB)/4, $0xff800000
GLOBL negInf<>(SB), RODATA|NOPTR, $4

// The pooling pixels: one output position's rows×taps window of c-channel
// input pixels, rows >= 1, taps >= 1, eight channels at a time and then
// one. rowStride and tapStride are in floats.

// func poolMaxAVX2(dst, x []float32, rowStride, tapStride, rows, taps int)
// dst[ch] = max over the window of x[r*rowStride+t*tapStride+ch], from
// -Inf, r then t ascending. VMAXPS returns its second source (first in Go
// operand order) when either input is NaN or both are zero; with the
// running maximum there, a NaN tap and a tie of zeros keep it, as the Go
// body's `v > best` does.
TEXT ·poolMaxAVX2(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), DX
	MOVQ         x_base+24(FP), R12
	MOVQ         rowStride+48(FP), R8
	MOVQ         tapStride+56(FP), R9
	MOVQ         rows+64(FP), R10
	MOVQ         taps+72(FP), BX
	SHLQ         $2, DX              // all three in bytes
	SHLQ         $2, R8
	SHLQ         $2, R9
	VBROADCASTSS negInf<>(SB), Y15
	XORQ         AX, AX              // channel offset

poolMax8:
	LEAQ    32(AX), R13
	CMPQ    R13, DX
	JA      poolMax1
	VMOVAPS Y15, Y0
	LEAQ    (R12)(AX*1), R11
	MOVQ    R10, R13

poolMax8Row:
	MOVQ R11, SI
	MOVQ BX, CX

poolMax8Tap:
	VMOVUPS (SI), Y1
	VMAXPS  Y0, Y1, Y0
	ADDQ    R9, SI
	DECQ    CX
	JNZ     poolMax8Tap
	ADDQ    R8, R11
	DECQ    R13
	JNZ     poolMax8Row
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     poolMax8

poolMax1:
	CMPQ    AX, DX
	JAE     poolMaxDone
	VMOVAPS X15, X0
	LEAQ    (R12)(AX*1), R11
	MOVQ    R10, R13

poolMax1Row:
	MOVQ R11, SI
	MOVQ BX, CX

poolMax1Tap:
	VMOVSS (SI), X1
	VMAXSS X0, X1, X0
	ADDQ   R9, SI
	DECQ   CX
	JNZ    poolMax1Tap
	ADDQ   R8, R11
	DECQ   R13
	JNZ    poolMax1Row
	VMOVSS X0, (DI)(AX*1)
	ADDQ   $4, AX
	JMP    poolMax1

poolMaxDone:
	VZEROUPPER
	RET

// func poolAvgAVX2(dst, x []float32, rowStride, tapStride, rows, taps int)
// dst[ch] = (the window's x[r*rowStride+t*tapStride+ch] added to +0 one at
// a time, r then t ascending) / float32(rows*taps).
TEXT ·poolAvgAVX2(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), DX
	MOVQ         x_base+24(FP), R12
	MOVQ         rowStride+48(FP), R8
	MOVQ         tapStride+56(FP), R9
	MOVQ         rows+64(FP), R10
	MOVQ         taps+72(FP), BX
	SHLQ         $2, DX
	SHLQ         $2, R8
	SHLQ         $2, R9
	MOVQ         R10, R13
	IMULQ        BX, R13
	VXORPS       X15, X15, X15
	VCVTSI2SSQ   R13, X15, X15
	VBROADCASTSS X15, Y15            // the divisor
	XORQ         AX, AX

poolAvg8:
	LEAQ   32(AX), R13
	CMPQ   R13, DX
	JA     poolAvg1
	VXORPS Y0, Y0, Y0
	LEAQ   (R12)(AX*1), R11
	MOVQ   R10, R13

poolAvg8Row:
	MOVQ R11, SI
	MOVQ BX, CX

poolAvg8Tap:
	VADDPS  (SI), Y0, Y0
	ADDQ    R9, SI
	DECQ    CX
	JNZ     poolAvg8Tap
	ADDQ    R8, R11
	DECQ    R13
	JNZ     poolAvg8Row
	VDIVPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     poolAvg8

poolAvg1:
	CMPQ   AX, DX
	JAE    poolAvgDone
	VXORPS X0, X0, X0
	LEAQ   (R12)(AX*1), R11
	MOVQ   R10, R13

poolAvg1Row:
	MOVQ R11, SI
	MOVQ BX, CX

poolAvg1Tap:
	VADDSS (SI), X0, X0
	ADDQ   R9, SI
	DECQ   CX
	JNZ    poolAvg1Tap
	ADDQ   R8, R11
	DECQ   R13
	JNZ    poolAvg1Row
	VDIVSS X15, X0, X0
	VMOVSS X0, (DI)(AX*1)
	ADDQ   $4, AX
	JMP    poolAvg1

poolAvgDone:
	VZEROUPPER
	RET

// func poolMaxGradAVX2(dx, x, dy []float32, rowStride, tapStride, rows, taps int)
// Per channel ch < len(dy): dx[at] += dy[ch] at the first at =
// r*rowStride+t*tapStride+ch whose x[at] is the window's maximum above
// -Inf. First pass: the running maximum in Y0 and the tap number that set
// it in Y1 (-1: none yet), both replaced where x > maximum (predicate
// 0x1e, greater-than ordered: false on a NaN and on a tie, so the first
// maximum stays). Second pass: every tap's dx is loaded, and dx+dy stored
// back in the lanes whose winning tap number is this tap's, dx itself in
// the others.
TEXT ·poolMaxGradAVX2(SB), NOSPLIT, $0-104
	MOVQ         dy_len+56(FP), DX
	MOVQ         rowStride+72(FP), R8
	MOVQ         tapStride+80(FP), R9
	MOVQ         taps+96(FP), BX
	SHLQ         $2, DX
	SHLQ         $2, R8
	SHLQ         $2, R9
	VBROADCASTSS negInf<>(SB), Y15
	VPCMPEQD     Y14, Y14, Y14       // -1 in every lane
	VPSRLD       $31, Y14, Y13       // 1 in every lane
	XORQ         AX, AX

poolMaxGrad8:
	LEAQ    32(AX), R13
	CMPQ    R13, DX
	JA      poolMaxGrad1
	VMOVAPS Y15, Y0
	VMOVDQA Y14, Y1
	VPXOR   Y2, Y2, Y2              // this tap's number
	MOVQ    x_base+24(FP), R11
	ADDQ    AX, R11
	MOVQ    rows+88(FP), R13

poolMaxGrad8FindRow:
	MOVQ R11, SI
	MOVQ BX, CX

poolMaxGrad8FindTap:
	VMOVUPS   (SI), Y4
	VCMPPS    $0x1e, Y0, Y4, Y5
	VBLENDVPS Y5, Y4, Y0, Y0
	VBLENDVPS Y5, Y2, Y1, Y1
	VPADDD    Y13, Y2, Y2
	ADDQ      R9, SI
	DECQ      CX
	JNZ       poolMaxGrad8FindTap
	ADDQ      R8, R11
	DECQ      R13
	JNZ       poolMaxGrad8FindRow
	MOVQ      dy_base+48(FP), R12
	VMOVUPS   (R12)(AX*1), Y6
	VPXOR     Y2, Y2, Y2
	MOVQ      dx_base+0(FP), R11
	ADDQ      AX, R11
	MOVQ      rows+88(FP), R13

poolMaxGrad8AddRow:
	MOVQ R11, DI
	MOVQ BX, CX

poolMaxGrad8AddTap:
	VPCMPEQD  Y2, Y1, Y5
	VMOVUPS   (DI), Y7
	VADDPS    Y6, Y7, Y8
	VBLENDVPS Y5, Y8, Y7, Y7
	VMOVUPS   Y7, (DI)
	VPADDD    Y13, Y2, Y2
	ADDQ      R9, DI
	DECQ      CX
	JNZ       poolMaxGrad8AddTap
	ADDQ      R8, R11
	DECQ      R13
	JNZ       poolMaxGrad8AddRow
	ADDQ      $32, AX
	JMP       poolMaxGrad8

poolMaxGrad1:
	CMPQ    AX, DX
	JAE     poolMaxGradDone
	VMOVAPS X15, X0
	VMOVDQA X14, X1
	VPXOR   X2, X2, X2
	MOVQ    x_base+24(FP), R11
	ADDQ    AX, R11
	MOVQ    rows+88(FP), R13

poolMaxGrad1FindRow:
	MOVQ R11, SI
	MOVQ BX, CX

poolMaxGrad1FindTap:
	VMOVSS    (SI), X4
	VCMPSS    $0x1e, X0, X4, X5
	VBLENDVPS X5, X4, X0, X0
	VBLENDVPS X5, X2, X1, X1
	VPADDD    X13, X2, X2
	ADDQ      R9, SI
	DECQ      CX
	JNZ       poolMaxGrad1FindTap
	ADDQ      R8, R11
	DECQ      R13
	JNZ       poolMaxGrad1FindRow
	MOVQ      dy_base+48(FP), R12
	VMOVSS    (R12)(AX*1), X6
	VPXOR     X2, X2, X2
	MOVQ      dx_base+0(FP), R11
	ADDQ      AX, R11
	MOVQ      rows+88(FP), R13

poolMaxGrad1AddRow:
	MOVQ R11, DI
	MOVQ BX, CX

poolMaxGrad1AddTap:
	VPCMPEQD  X2, X1, X5
	VMOVSS    (DI), X7
	VADDSS    X6, X7, X8
	VBLENDVPS X5, X8, X7, X7
	VMOVSS    X7, (DI)
	VPADDD    X13, X2, X2
	ADDQ      R9, DI
	DECQ      CX
	JNZ       poolMaxGrad1AddTap
	ADDQ      R8, R11
	DECQ      R13
	JNZ       poolMaxGrad1AddRow
	ADDQ      $4, AX
	JMP       poolMaxGrad1

poolMaxGradDone:
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
