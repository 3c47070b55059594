#include "textflag.h"

DATA quantizeHalf<>+0(SB)/4, $0x3f000000 // 0.5
GLOBL quantizeHalf<>(SB), RODATA|NOPTR, $4

DATA quantizeLowBytes<>+0(SB)/4, $0x00ff00ff
GLOBL quantizeLowBytes<>(SB), RODATA|NOPTR, $4

// The dword order that undoes the two in-lane packs below.
DATA quantizeOrder<>+0(SB)/4, $0
DATA quantizeOrder<>+4(SB)/4, $4
DATA quantizeOrder<>+8(SB)/4, $1
DATA quantizeOrder<>+12(SB)/4, $5
DATA quantizeOrder<>+16(SB)/4, $2
DATA quantizeOrder<>+20(SB)/4, $6
DATA quantizeOrder<>+24(SB)/4, $3
DATA quantizeOrder<>+28(SB)/4, $7
GLOBL quantizeOrder<>(SB), RODATA|NOPTR, $32

// ROUND8 quantizes the eight floats at M into int32 lanes of Y: quantizeAct's
// steps in its order — r = v·inv (Y8); r + 0.5 carrying r's sign where the
// mode keeps signs (Y9 is the sign bit, or 0 in unsigned mode); NaN, the one
// value not equal to itself, to 0; clamp to [Y10, Y11]; truncate.
#define ROUND8(M, Y) \
	VMULPS     M, Y8, Y     \
	VANDPS     Y9, Y, Y15   \
	VORPS      Y12, Y15, Y15 \
	VADDPS     Y15, Y, Y    \
	VCMPPS     $0, Y, Y, Y15 \
	VANDPS     Y15, Y, Y    \
	VMAXPS     Y10, Y, Y    \
	VMINPS     Y11, Y, Y    \
	VCVTTPS2DQ Y, Y

// ROUND16 is ROUND8 on the sixteen floats at M, into V (AVX-512): the same
// steps in the same order, the constants in Z8..Z12, NaN lanes zeroed
// through the mask VCMPPS leaves in K1.
#define ROUND16(M, V) \
	VMULPS     M, Z8, V      \
	VPANDD     Z9, V, Z15    \
	VPORD      Z12, Z15, Z15 \
	VADDPS     Z15, V, V     \
	VCMPPS     $0, V, V, K1  \
	VMOVAPS.Z  V, K1, V      \
	VMAXPS     Z10, V, V     \
	VMINPS     Z11, V, V     \
	VCVTTPS2DQ V, V

// func quantizeNC4(dst *uint8, src *float32, blocks int, inv float32, sign uint32, lo, hi *float32)
//
// dst[i] = quantizeAct(src[i]) for i < 32·blocks, blocks ≥ 1: eight pixels
// of one channel pack per step. lo and hi hold the clamp of two pixels'
// lanes (8 floats), which is how pad lanes come out 0 whatever they held.
TEXT ·quantizeNC4(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	MOVQ lo+32(FP), AX
	MOVQ hi+40(FP), BX
	VBROADCASTSS inv+24(FP), Y8
	VBROADCASTSS sign+28(FP), Y9
	VMOVUPS      (AX), Y10
	VMOVUPS      (BX), Y11
	VBROADCASTSS quantizeHalf<>(SB), Y12
	VBROADCASTSS quantizeLowBytes<>(SB), Y13
	VMOVDQU      quantizeOrder<>(SB), Y14

loop:
	ROUND8(0(SI), Y0)
	ROUND8(32(SI), Y1)
	ROUND8(64(SI), Y2)
	ROUND8(96(SI), Y3)
	// int32 → int16 → byte, both in-lane: the values fit a byte as signed or
	// as unsigned, so the low byte of each is kept and nothing saturates.
	VPACKSSDW Y1, Y0, Y0
	VPACKSSDW Y3, Y2, Y2
	VPAND     Y13, Y0, Y0
	VPAND     Y13, Y2, Y2
	VPACKUSWB Y2, Y0, Y0
	VPERMD    Y0, Y14, Y0
	VMOVDQU   Y0, (DI)
	ADDQ      $128, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       loop
	VZEROUPPER
	RET

// func quantizePixelsNC4(dst *uint8, dstPix, dstRow int, src *float32, srcPack, srcRow, packs, rows, pixels int, inv float32, sign uint32, lo, hi float32)
//
// quantizeNC4 into a pixel-major image, on AVX-512: for r < rows,
// x < pixels, p < packs and lane l < 4, the float
// src[p·srcPack + r·srcRow + x·4 + l] is quantized by quantizeAct, clamped
// to [lo, hi], into the byte dst[r·dstRow + x·dstPix + p·4 + l]. Needs
// packs ≥ 4 and pixels ≥ 4: four pixels of four packs at a time (ROUND16,
// then VPMOVDB keeps each int32's low byte, which holds the value as signed
// or as unsigned), turned pixel-major by a 4×4 dword transpose, sixteen
// bytes a pixel; the last four packs and the last four pixels of a row end
// on its end, rewriting some with the same bytes.
TEXT ·quantizePixelsNC4(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ dstPix+8(FP), R10
	MOVQ src+24(FP), SI
	MOVQ srcPack+32(FP), R11
	MOVQ packs+48(FP), R14
	MOVQ rows+56(FP), R12
	MOVQ pixels+64(FP), R15
	SHLQ $2, R11
	LEAQ (R10)(R10*2), R13
	VBROADCASTSS inv+72(FP), Z8
	VBROADCASTSS sign+76(FP), Z9
	VBROADCASTSS lo+80(FP), Z10
	VBROADCASTSS hi+84(FP), Z11
	VBROADCASTSS quantizeHalf<>(SB), Z12

pmrow:
	XORQ R8, R8

pmpacks:
	MOVQ    R14, AX
	SUBQ    $4, AX
	CMPQ    R8, AX
	CMOVQGT AX, R8
	XORQ    R9, R9

pmpixels:
	MOVQ    R15, AX
	SUBQ    $4, AX
	CMPQ    R9, AX
	CMOVQGT AX, R9
	MOVQ    R8, BX
	IMULQ   R11, BX
	ADDQ    SI, BX
	MOVQ    R9, AX
	SHLQ    $4, AX
	ADDQ    AX, BX
	ROUND16((BX), Z0)
	ADDQ    R11, BX
	ROUND16((BX), Z1)
	ADDQ    R11, BX
	ROUND16((BX), Z2)
	ADDQ    R11, BX
	ROUND16((BX), Z3)
	VPMOVDB Z0, X0
	VPMOVDB Z1, X1
	VPMOVDB Z2, X2
	VPMOVDB Z3, X3
	// X0..X3 hold packs pg…pg+3 of pixels x…x+3, a dword a pixel; the
	// transpose leaves pixel x+i in X(i), packs in order.
	VPUNPCKLDQ  X1, X0, X4
	VPUNPCKHDQ  X1, X0, X5
	VPUNPCKLDQ  X3, X2, X6
	VPUNPCKHDQ  X3, X2, X7
	VPUNPCKLQDQ X6, X4, X0
	VPUNPCKHQDQ X6, X4, X1
	VPUNPCKLQDQ X7, X5, X2
	VPUNPCKHQDQ X7, X5, X3
	MOVQ    R9, CX
	IMULQ   R10, CX
	ADDQ    DI, CX
	LEAQ    (CX)(R8*4), CX
	VMOVDQU X0, (CX)
	VMOVDQU X1, (CX)(R10*1)
	VMOVDQU X2, (CX)(R10*2)
	VMOVDQU X3, (CX)(R13*1)
	ADDQ $4, R9
	CMPQ R9, R15
	JLT  pmpixels
	ADDQ $4, R8
	CMPQ R8, R14
	JLT  pmpacks
	MOVQ srcRow+40(FP), AX
	SHLQ $2, AX
	ADDQ AX, SI
	ADDQ dstRow+16(FP), DI
	DECQ R12
	JNZ  pmrow
	VZEROUPPER
	RET

// func maxAbs8(src *float32, blocks int, mask *[8]uint32) float32
//
// The largest |src[i]| for i < 8·blocks, blocks ≥ 1, over the lanes i%8
// whose mask is 0x7fffffff (a 0 mask lane reads as +0), NaN passed over as
// by the scalar `if v > m`: VMAXPS returns its second source, the running
// maximum, when the first is NaN.
TEXT ·maxAbs8(SB), NOSPLIT, $0-28
	MOVQ    src+0(FP), SI
	MOVQ    blocks+8(FP), CX
	MOVQ    mask+16(FP), AX
	VMOVUPS (AX), Y1
	VXORPS  Y0, Y0, Y0

maxloop:
	VANDPS (SI), Y1, Y2
	VMAXPS Y0, Y2, Y0
	ADDQ   $32, SI
	DECQ   CX
	JNZ    maxloop
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0x4e, X0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0xb1, X0, X1
	VMAXPS       X1, X0, X0
	VMOVSS       X0, ret+24(FP)
	VZEROUPPER
	RET

DATA quantizeWeightLo<>+0(SB)/4, $0xc2fe0000 // -127
GLOBL quantizeWeightLo<>(SB), RODATA|NOPTR, $4

DATA quantizeWeightHi<>+0(SB)/4, $0x42fe0000 // 127
GLOBL quantizeWeightHi<>(SB), RODATA|NOPTR, $4

// WROUND8 quantizes the eight floats at M into int32 lanes of Y:
// quantizeWeight's steps in its order — r = v / scale (Y8), rounded to the
// nearest integer, ties to even; NaN, the one value not equal to itself, to
// 0; clamp to [-127, 127] (Y10, Y11); convert, exact on an integer.
#define WROUND8(M, Y) \
	VMOVUPS    M, Y         \
	VDIVPS     Y8, Y, Y     \
	VROUNDPS   $0, Y, Y     \
	VCMPPS     $0, Y, Y, Y15 \
	VANDPS     Y15, Y, Y    \
	VMAXPS     Y10, Y, Y    \
	VMINPS     Y11, Y, Y    \
	VCVTTPS2DQ Y, Y

// func quantizeWeights32(dst *int8, src *float32, blocks int, scale float32)
//
// dst[i] = quantizeWeight(src[i], scale) for i < 32·blocks, blocks ≥ 1.
TEXT ·quantizeWeights32(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	VBROADCASTSS scale+24(FP), Y8
	VBROADCASTSS quantizeWeightLo<>(SB), Y10
	VBROADCASTSS quantizeWeightHi<>(SB), Y11
	VMOVDQU      quantizeOrder<>(SB), Y14

wloop:
	WROUND8(0(SI), Y0)
	WROUND8(32(SI), Y1)
	WROUND8(64(SI), Y2)
	WROUND8(96(SI), Y3)
	// int32 → int16 → int8, both in-lane and signed; the values fit, so
	// nothing saturates.
	VPACKSSDW Y1, Y0, Y0
	VPACKSSDW Y3, Y2, Y2
	VPACKSSWB Y2, Y0, Y0
	VPERMD    Y0, Y14, Y0
	VMOVDQU   Y0, (DI)
	ADDQ      $128, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       wloop
	VZEROUPPER
	RET
