#include "textflag.h"

// TAP1/TAP2 accumulate one filter tap for two adjacent output pixels into
// Y10: load the two source pixels' channel packs (adjacent at stride 1, one
// pixel apart at stride 2), multiply by the tap's weights W (the pack's four
// weights in both 128-bit halves), then add — VMULPS then VADDPS, never FMA,
// with the source as the first multiplicand and the accumulator as the first
// addend, exactly the scalar `acc += float32(s * w)`.
#define TAP1(OFF, ROW, W) \
	VMOVUPS OFF(ROW), Y11 \
	VMULPS  W, Y11, Y11   \
	VADDPS  Y11, Y10, Y10

#define TAP2(OFF, ROW, W) \
	VMOVUPS     OFF(ROW), X11             \
	VINSERTF128 $1, 32+OFF(ROW), Y11, Y11 \
	VMULPS      W, Y11, Y11               \
	VADDPS      Y11, Y10, Y10

// CLAMP_STORE clamps Y10 to [Y13, Y14] and stores the two output pixels.
// The accumulator is the SECOND source of VMAXPS/VMINPS, which return the
// second source when an operand is NaN or both are zero: NaN stays NaN and
// -0 stays -0, as in the scalar relu/relu6.
#define CLAMP_STORE \
	VMAXPS  Y10, Y13, Y10 \
	VMINPS  Y10, Y14, Y10 \
	VMOVUPS Y10, (R11)    \
	ADDQ    $32, R11

// func depthwise3x3(dst, src *float32, rows, pairs, dstRow, srcRow, srcStep, stride int, w, bias *float32, lo, hi float32)
//
// One channel pack of a 3×3, dilation-1 depthwise convolution over a
// rectangle of interior output pixels (every tap in bounds): `rows` output
// rows, dstRow floats apart, of `pairs` pairs of adjacent pixels. src is the
// top-left tap of the first pixel; its rows are srcRow floats apart and the
// windows of successive output rows srcStep floats apart. stride (1 or 2)
// is the horizontal stride. w is the pack's nine taps × four channels, bias
// its four biases. Each output is bias + the nine products added in (ky, kx)
// order, clamped to [lo, hi]. Requires rows ≥ 1 and pairs ≥ 1.
TEXT ·depthwise3x3(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), BX
	MOVQ dstRow+32(FP), DX
	MOVQ srcRow+40(FP), R12
	MOVQ srcStep+48(FP), R13
	MOVQ w+64(FP), AX
	MOVQ bias+72(FP), CX
	SHLQ $2, DX
	SHLQ $2, R12
	SHLQ $2, R13
	VBROADCASTF128 0(AX), Y0
	VBROADCASTF128 16(AX), Y1
	VBROADCASTF128 32(AX), Y2
	VBROADCASTF128 48(AX), Y3
	VBROADCASTF128 64(AX), Y4
	VBROADCASTF128 80(AX), Y5
	VBROADCASTF128 96(AX), Y6
	VBROADCASTF128 112(AX), Y7
	VBROADCASTF128 128(AX), Y8
	VBROADCASTF128 (CX), Y9
	VBROADCASTSS   lo+80(FP), Y13
	VBROADCASTSS   hi+84(FP), Y14
	MOVQ stride+56(FP), AX
	CMPQ AX, $1
	JNE  rows2

rows1:
	MOVQ SI, R8
	LEAQ (R8)(R12*1), R9
	LEAQ (R9)(R12*1), R10
	MOVQ DI, R11
	MOVQ pairs+24(FP), CX

pairs1:
	VMOVAPS Y9, Y10
	TAP1(0, R8, Y0)
	TAP1(16, R8, Y1)
	TAP1(32, R8, Y2)
	TAP1(0, R9, Y3)
	TAP1(16, R9, Y4)
	TAP1(32, R9, Y5)
	TAP1(0, R10, Y6)
	TAP1(16, R10, Y7)
	TAP1(32, R10, Y8)
	CLAMP_STORE
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	DECQ CX
	JNZ  pairs1
	ADDQ R13, SI
	ADDQ DX, DI
	DECQ BX
	JNZ  rows1
	VZEROUPPER
	RET

rows2:
	MOVQ SI, R8
	LEAQ (R8)(R12*1), R9
	LEAQ (R9)(R12*1), R10
	MOVQ DI, R11
	MOVQ pairs+24(FP), CX

pairs2:
	VMOVAPS Y9, Y10
	TAP2(0, R8, Y0)
	TAP2(16, R8, Y1)
	TAP2(32, R8, Y2)
	TAP2(0, R9, Y3)
	TAP2(16, R9, Y4)
	TAP2(32, R9, Y5)
	TAP2(0, R10, Y6)
	TAP2(16, R10, Y7)
	TAP2(32, R10, Y8)
	CLAMP_STORE
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	DECQ CX
	JNZ  pairs2
	ADDQ R13, SI
	ADDQ DX, DI
	DECQ BX
	JNZ  rows2
	VZEROUPPER
	RET

// func depthwiseRuns(dst, src *float32, runs *dwRun, nruns int, taps *matmul.Tap, srcStep int, w, bias *float32, lo, hi float32)
//
// One channel pack, every pixel the interior kernel leaves: nruns ≥ 1 runs
// of {dst offset, pixels ≥ 1, taps} (three words, floats and counts), their
// {A, B} tap lists one after the other at taps. Pixel p of a run is the bias
// plus, in list order, src[A + p·srcStep .. +4] · w[B .. +4] — VMULPS then
// VADDPS with the operand order of TAP1 — clamped as in CLAMP_STORE, stored
// at dst offset + 4p. Only the taps inside the image are listed, so nothing
// is read or multiplied for the others; a run with no taps stores clamp(bias).
TEXT ·depthwiseRuns(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ runs+16(FP), R8
	MOVQ nruns+24(FP), R9
	MOVQ taps+32(FP), R10
	MOVQ srcStep+40(FP), R11
	MOVQ w+48(FP), R12
	MOVQ bias+56(FP), AX
	SHLQ $2, R11
	VMOVUPS      (AX), X0
	VBROADCASTSS lo+64(FP), X1
	VBROADCASTSS hi+68(FP), X2

run:
	MOVQ 0(R8), AX
	MOVQ 8(R8), CX
	MOVQ 16(R8), DX
	ADDQ $24, R8
	LEAQ (DI)(AX*4), R13
	MOVQ SI, R14

pixel:
	VMOVAPS X0, X3
	MOVQ    R10, AX
	MOVQ    DX, BX
	TESTQ   BX, BX
	JZ      store

tap:
	MOVQ    0(AX), R15
	VMOVUPS (R14)(R15*4), X4
	MOVQ    8(AX), R15
	VMULPS  (R12)(R15*4), X4, X4
	VADDPS  X4, X3, X3
	ADDQ    $16, AX
	DECQ    BX
	JNZ     tap

store:
	VMAXPS  X3, X1, X3
	VMINPS  X3, X2, X3
	VMOVUPS X3, (R13)
	ADDQ    $16, R13
	ADDQ    R11, R14
	DECQ    CX
	JNZ     pixel
	SHLQ    $4, DX
	ADDQ    DX, R10
	DECQ    R9
	JNZ     run
	RET
