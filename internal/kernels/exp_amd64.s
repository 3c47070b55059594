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

// The constants of the row kernels below: the lane numbers 0–7 (int32),
// eight all-ones masks then eight zero ones (int32), −Inf (float32) and 1
// (float64).
DATA rowc<>+0(SB)/4, $0
DATA rowc<>+4(SB)/4, $1
DATA rowc<>+8(SB)/4, $2
DATA rowc<>+12(SB)/4, $3
DATA rowc<>+16(SB)/4, $4
DATA rowc<>+20(SB)/4, $5
DATA rowc<>+24(SB)/4, $6
DATA rowc<>+28(SB)/4, $7
DATA rowc<>+32(SB)/8, $-1
DATA rowc<>+40(SB)/8, $-1
DATA rowc<>+48(SB)/8, $-1
DATA rowc<>+56(SB)/8, $-1
DATA rowc<>+64(SB)/8, $0
DATA rowc<>+72(SB)/8, $0
DATA rowc<>+80(SB)/8, $0
DATA rowc<>+88(SB)/8, $0
DATA rowc<>+96(SB)/4, $0xff800000
DATA rowc<>+104(SB)/8, $0x3ff0000000000000
GLOBL rowc<>(SB), RODATA|NOPTR, $112

// ROWSETUP prepares a walk over groups of eight rows of DX ≥ 1 floats, one
// row per lane: R8 the bytes of a group, R12 the whole blocks of eight
// columns in a row, R13 the columns left over and Y14 the mask of their
// lanes for VMASKMOVPS.
#define ROWSETUP \
	MOVQ          DX, R8                    \
	SHLQ          $5, R8                    \
	MOVQ          DX, R12                   \
	SHRQ          $3, R12                   \
	MOVQ          DX, R13                   \
	ANDQ          $7, R13                   \
	MOVQ          $8, AX                    \
	SUBQ          R13, AX                   \
	LEAQ          rowc<>+32(SB), BX         \
	VMOVUPS       (BX)(AX*4), Y14

// GROUP starts a group with CX ≥ 1 rows still to go: its rows, eight or the
// CX of a last group of fewer, in SLOT, and in Y15 the gather offsets
// min(l, rows − 1)·DX of lane l — the spare lanes of a last group repeat its
// last row, and the passes along rows stop at its real ones. AX, Y6 and Y7
// are spent.
#define GROUP(SLOT) \
	MOVQ         $8, AX               \
	CMPQ         CX, AX               \
	CMOVQLT      CX, AX               \
	MOVQ         AX, SLOT             \
	DECQ         AX                   \
	VMOVQ        AX, X6               \
	VPBROADCASTD X6, Y6               \
	VPMINSD      rowc<>+0(SB), Y6, Y6 \
	VMOVQ        DX, X7               \
	VPBROADCASTD X7, Y7               \
	VPMULLD      Y7, Y6, Y15

// COLUMN loads column j of the group whose row 0 starts at BASE + 4j into
// DST, lane l from the row at Y15 (Y6 is the spent gather mask).
#define COLUMN(BASE, DST) \
	VPCMPEQD   Y6, Y6, Y6             \
	VGATHERDPS Y6, (BASE)(Y15*4), DST

// func softmaxRows8(dst, src *float32, d1, rows int)
//
// The AVX2 twin of softmaxRows (transformer_ops.go) over rows ≥ 1 rows of
// d1 ≥ 1 floats, eight at a time (GROUP), one row per lane, the columns in
// ascending order: the maximum from −Inf by VMAXPS with the maximum as its
// second source, so v replaces it only when v > max (a NaN is passed over,
// the first of ±0 kept); then x − max and EXP8 of it, a row at a time; the
// sum of those from +0, column by column; then one division per element, a
// row at a time. dst may be src.
TEXT ·softmaxRows8(SB), NOSPLIT, $40-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ d1+16(FP), DX
	MOVQ rows+24(FP), CX
	ROWSETUP

smgroup:
	GROUP(32(SP))
	VBROADCASTSS rowc<>+96(SB), Y4
	MOVQ         SI, R10
	MOVQ         DX, AX

smmax:
	COLUMN(R10, Y5)
	VMAXPS Y4, Y5, Y4
	ADDQ   $4, R10
	DECQ   AX
	JNZ    smmax
	VMOVUPS Y4, (SP)
	MOVQ    SI, R10
	MOVQ    DI, R11
	XORQ    BX, BX

smexprow:
	VBROADCASTSS (SP)(BX*4), Y5
	MOVQ         R12, AX
	TESTQ        AX, AX
	JZ           smexptail

smexp:
	VMOVUPS (R10), Y0
	VSUBPS  Y5, Y0, Y0
	EXP8
	VMOVUPS Y0, (R11)
	ADDQ    $32, R10
	ADDQ    $32, R11
	DECQ    AX
	JNZ     smexp

smexptail:
	TESTQ      R13, R13
	JZ         smexpnext
	VMASKMOVPS (R10), Y14, Y0
	VSUBPS     Y5, Y0, Y0
	EXP8
	VMASKMOVPS Y0, Y14, (R11)
	LEAQ       (R10)(R13*4), R10
	LEAQ       (R11)(R13*4), R11

smexpnext:
	INCQ   BX
	CMPQ   BX, 32(SP)
	JLT    smexprow
	VXORPS Y4, Y4, Y4
	MOVQ   DI, R10
	MOVQ   DX, AX

smsum:
	COLUMN(R10, Y5)
	VADDPS Y5, Y4, Y4
	ADDQ   $4, R10
	DECQ   AX
	JNZ    smsum
	VMOVUPS Y4, (SP)
	MOVQ    DI, R11
	XORQ    BX, BX

smdivrow:
	VBROADCASTSS (SP)(BX*4), Y5
	MOVQ         R12, AX
	TESTQ        AX, AX
	JZ           smdivtail

smdiv:
	VMOVUPS (R11), Y0
	VDIVPS  Y5, Y0, Y0
	VMOVUPS Y0, (R11)
	ADDQ    $32, R11
	DECQ    AX
	JNZ     smdiv

smdivtail:
	TESTQ      R13, R13
	JZ         smdivnext
	VMASKMOVPS (R11), Y14, Y0
	VDIVPS     Y5, Y0, Y0
	VMASKMOVPS Y0, Y14, (R11)
	LEAQ       (R11)(R13*4), R11

smdivnext:
	INCQ BX
	CMPQ BX, 32(SP)
	JLT  smdivrow
	ADDQ R8, SI
	ADDQ R8, DI
	SUBQ $8, CX
	JG   smgroup
	VZEROUPPER
	RET

// WIDEN turns the eight floats of Y7 into float64: lanes 0–3 in Y7, 4–7 in
// Y8.
#define WIDEN \
	VEXTRACTF128 $1, Y7, X8 \
	VCVTPS2PD    X7, Y7     \
	VCVTPS2PD    X8, Y8

// func layerNormRows8(dst, src *float32, d1, rows int, gamma, beta *float32, eps float32)
//
// The AVX2 twin of layerNormRows (transformer_ops.go) over rows ≥ 1 rows of
// d1 ≥ 1 floats, eight at a time (GROUP), one row per lane in float64 —
// rows 0–3 of a group in one ymm, 4–7 in the next — the columns in
// ascending order: the mean, a sum from +0 divided by d1; Σ (x − mean)²,
// multiply and add rounded separately, divided by d1; 1/√(that + eps)
// rounded to float32, as is the mean; then ((x − mean)·inv)·γ + β in
// float32, a row at a time. dst may be src.
TEXT ·layerNormRows8(SB), NOSPLIT, $72-52
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         d1+16(FP), DX
	MOVQ         rows+24(FP), CX
	ROWSETUP
	VCVTSI2SDQ   DX, X9, X9
	VBROADCASTSD X9, Y9
	VCVTSS2SD    eps+48(FP), X12, X12
	VBROADCASTSD X12, Y12
	VBROADCASTSD rowc<>+104(SB), Y13

lngroup:
	GROUP(64(SP))
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	MOVQ   SI, R10
	MOVQ   DX, AX

lnmean:
	COLUMN(R10, Y7)
	WIDEN
	VADDPD Y7, Y4, Y4
	VADDPD Y8, Y5, Y5
	ADDQ   $4, R10
	DECQ   AX
	JNZ    lnmean
	VDIVPD Y9, Y4, Y4
	VDIVPD Y9, Y5, Y5
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	MOVQ   SI, R10
	MOVQ   DX, AX

lnvar:
	COLUMN(R10, Y7)
	WIDEN
	VSUBPD Y4, Y7, Y7
	VSUBPD Y5, Y8, Y8
	VMULPD Y7, Y7, Y7
	VMULPD Y8, Y8, Y8
	VADDPD Y7, Y10, Y10
	VADDPD Y8, Y11, Y11
	ADDQ   $4, R10
	DECQ   AX
	JNZ    lnvar
	VDIVPD     Y9, Y10, Y10
	VDIVPD     Y9, Y11, Y11
	VADDPD     Y12, Y10, Y10
	VADDPD     Y12, Y11, Y11
	VSQRTPD    Y10, Y10
	VSQRTPD    Y11, Y11
	VDIVPD     Y10, Y13, Y10
	VDIVPD     Y11, Y13, Y11
	VCVTPD2PSY Y4, X4
	VCVTPD2PSY Y5, X5
	VCVTPD2PSY Y10, X10
	VCVTPD2PSY Y11, X11
	VMOVUPS    X4, (SP)
	VMOVUPS    X5, 16(SP)
	VMOVUPS    X10, 32(SP)
	VMOVUPS    X11, 48(SP)
	MOVQ       SI, R10
	MOVQ       DI, R11
	XORQ       BX, BX

lnrow:
	VBROADCASTSS (SP)(BX*4), Y4
	VBROADCASTSS 32(SP)(BX*4), Y5
	MOVQ         gamma+32(FP), R14
	MOVQ         beta+40(FP), R9
	MOVQ         R12, AX
	TESTQ        AX, AX
	JZ           lntail

lnblk:
	VMOVUPS (R10), Y0
	VSUBPS  Y4, Y0, Y0
	VMULPS  Y5, Y0, Y0
	VMULPS  (R14), Y0, Y0
	VADDPS  (R9), Y0, Y0
	VMOVUPS Y0, (R11)
	ADDQ    $32, R10
	ADDQ    $32, R11
	ADDQ    $32, R14
	ADDQ    $32, R9
	DECQ    AX
	JNZ     lnblk

lntail:
	TESTQ      R13, R13
	JZ         lnnext
	VMASKMOVPS (R10), Y14, Y0
	VMASKMOVPS (R14), Y14, Y1
	VMASKMOVPS (R9), Y14, Y2
	VSUBPS     Y4, Y0, Y0
	VMULPS     Y5, Y0, Y0
	VMULPS     Y1, Y0, Y0
	VADDPS     Y2, Y0, Y0
	VMASKMOVPS Y0, Y14, (R11)
	LEAQ       (R10)(R13*4), R10
	LEAQ       (R11)(R13*4), R11

lnnext:
	INCQ BX
	CMPQ BX, 64(SP)
	JLT  lnrow
	ADDQ R8, SI
	ADDQ R8, DI
	SUBQ $8, CX
	JG   lngroup
	VZEROUPPER
	RET
