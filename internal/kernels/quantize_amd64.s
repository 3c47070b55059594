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

DATA quantizeAbs<>+0(SB)/4, $0x7fffffff
GLOBL quantizeAbs<>(SB), RODATA|NOPTR, $4

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

// func maxAbs8(src *float32, blocks int) float32
//
// The largest |src[i]| for i < 8·blocks, blocks ≥ 1, NaN passed over as by
// the scalar `if v > m`: VMAXPS returns its second source, the running
// maximum, when the first is NaN.
TEXT ·maxAbs8(SB), NOSPLIT, $0-20
	MOVQ src+0(FP), SI
	MOVQ blocks+8(FP), CX
	VBROADCASTSS quantizeAbs<>(SB), Y1
	VXORPS       Y0, Y0, Y0

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
	VMOVSS       X0, ret+16(FP)
	VZEROUPPER
	RET
