#include "textflag.h"

// The constants of expf32 and geluf32 (expf.go), as float32 bits.
DATA expc<>+0(SB)/4, $0x42b0c0a5  // expHi 88.37626
DATA expc<>+4(SB)/4, $0xc2aeac4f  // expLo -87.33654
DATA expc<>+8(SB)/4, $0x3fb8aa3b  // expLog2e
DATA expc<>+12(SB)/4, $0x4b400000 // expMagic 1.5·2²³
DATA expc<>+16(SB)/4, $0x3f318000 // expC1
DATA expc<>+20(SB)/4, $0xb95e8083 // expC2
DATA expc<>+24(SB)/4, $0x39506967 // expP0
DATA expc<>+28(SB)/4, $0x3ab743ce // expP1
DATA expc<>+32(SB)/4, $0x3c088908 // expP2
DATA expc<>+36(SB)/4, $0x3d2aa9c1 // expP3
DATA expc<>+40(SB)/4, $0x3e2aaaaa // expP4
DATA expc<>+44(SB)/4, $0x3f000000 // expP5
DATA expc<>+48(SB)/4, $0x3f800000 // 1
DATA expc<>+52(SB)/4, $0xc1800000 // geluLo -16
DATA expc<>+56(SB)/4, $0x3d372713 // geluK 0.044715
DATA expc<>+60(SB)/4, $0xbfcc422a // geluM -2·√(2/π)
GLOBL expc<>(SB), RODATA|NOPTR, $64

// HORNER: Y2 = Y2·r + the constant at off.
#define HORNER(off) \
	VMULPS       Y0, Y2, Y2          \
	VBROADCASTSS expc<>+off(SB), Y3  \
	VADDPS       Y3, Y2, Y2

// EXP8: Y0 = expf32 of each lane of Y0, operation for operation — clamp, n
// (Y1, then shifted into the exponent field), r (Y0), Horner (Y2), scale;
// Y1–Y3 scratch. VMINPS/VMAXPS return their second source (the first operand
// in this syntax) when either is NaN, so x is written first in both clamps
// and a NaN passes through them instead of becoming a bound.
#define EXP8 \
	VBROADCASTSS expc<>+0(SB), Y1   \
	VMINPS       Y0, Y1, Y0         \
	VBROADCASTSS expc<>+4(SB), Y1   \
	VMAXPS       Y0, Y1, Y0         \
	VBROADCASTSS expc<>+8(SB), Y1   \
	VMULPS       Y1, Y0, Y1         \
	VBROADCASTSS expc<>+12(SB), Y2  \
	VADDPS       Y2, Y1, Y1         \
	VSUBPS       Y2, Y1, Y1         \
	VBROADCASTSS expc<>+16(SB), Y2  \
	VMULPS       Y2, Y1, Y2         \
	VSUBPS       Y2, Y0, Y0         \
	VBROADCASTSS expc<>+20(SB), Y2  \
	VMULPS       Y2, Y1, Y2         \
	VSUBPS       Y2, Y0, Y0         \
	VCVTPS2DQ    Y1, Y1             \
	VPSLLD       $23, Y1, Y1        \
	VBROADCASTSS expc<>+24(SB), Y2  \
	HORNER(28)                      \
	HORNER(32)                      \
	HORNER(36)                      \
	HORNER(40)                      \
	HORNER(44)                      \
	VMULPS       Y0, Y0, Y3         \
	VMULPS       Y3, Y2, Y2         \
	VADDPS       Y0, Y2, Y2         \
	VBROADCASTSS expc<>+48(SB), Y3  \
	VADDPS       Y3, Y2, Y2         \
	VPADDD       Y1, Y2, Y0

// func expPS(dst, src *float32, blocks int)
TEXT ·expPS(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX

exploop:
	VMOVUPS (SI), Y0
	EXP8
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     exploop
	VZEROUPPER
	RET

// func geluPS(dst, src *float32, blocks int)
//
// geluf32 of 8·blocks floats: x clamped below (NaN kept, as in EXP8), the
// exponent −2u built in geluf32's order, EXP8, then x / (1 + e).
TEXT ·geluPS(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX

geluloop:
	VMOVUPS      (SI), Y4
	VBROADCASTSS expc<>+52(SB), Y1
	VMAXPS       Y4, Y1, Y4
	VMULPS       Y4, Y4, Y0
	VMULPS       Y4, Y0, Y0
	VBROADCASTSS expc<>+56(SB), Y1
	VMULPS       Y0, Y1, Y0
	VADDPS       Y0, Y4, Y0
	VBROADCASTSS expc<>+60(SB), Y1
	VMULPS       Y1, Y0, Y0
	EXP8
	VBROADCASTSS expc<>+48(SB), Y1
	VADDPS       Y0, Y1, Y0
	VDIVPS       Y0, Y4, Y0
	VMOVUPS      Y0, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          geluloop
	VZEROUPPER
	RET

// func dotCols8(dst, a, b *float32, k, ldb, blocks int, scale float32)
//
// For each of `blocks` blocks of eight columns j:
// dst[j] = (Σ_p a[p]·b[p·ldb + j]) · scale, p ascending from +0, multiply and
// add rounded separately — per element the attention GEMMs' scalar loop.
TEXT ·dotCols8(SB), NOSPLIT, $0-52
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), BX
	MOVQ         k+24(FP), R8
	MOVQ         ldb+32(FP), R9
	MOVQ         blocks+40(FP), CX
	VBROADCASTSS scale+48(FP), Y3
	SHLQ         $2, R9

dotblock:
	MOVQ   SI, R10
	MOVQ   BX, R11
	MOVQ   R8, AX
	VXORPS Y0, Y0, Y0

dotstep:
	VBROADCASTSS (R10), Y1
	VMULPS       (R11), Y1, Y1
	VADDPS       Y1, Y0, Y0
	ADDQ         $4, R10
	ADDQ         R9, R11
	DECQ         AX
	JNZ          dotstep
	VMULPS       Y3, Y0, Y0
	VMOVUPS      Y0, (DI)
	ADDQ         $32, DI
	ADDQ         $32, BX
	DECQ         CX
	JNZ          dotblock
	VZEROUPPER
	RET
