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

// The steps of the last-axis softmax on a column of eight rows, one row per
// lane, shared by softmaxRows8 and attentionRows8 so that both round as
// softmaxRows does. SMMAX: MAX = V where V > MAX (VMAXPS returns its second
// source, the maximum, when either is NaN or both are zero, so a NaN is
// passed over and the first of ±0 kept). SMEXP: Y0 = EXP8(Y0 − MAX), Y1–Y3
// spent. SMSUM: SUM += V. SMDIV: Y0 = Y0 / SUM.
#define SMMAX(V, MAX) VMAXPS MAX, V, MAX
#define SMEXP(MAX) \
	VSUBPS MAX, Y0, Y0 \
	EXP8
#define SMSUM(V, SUM) VADDPS V, SUM, SUM
#define SMDIV(SUM) VDIVPS SUM, Y0, Y0

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
	SMMAX(Y5, Y4)
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
	SMEXP(Y5)
	VMOVUPS Y0, (R11)
	ADDQ    $32, R10
	ADDQ    $32, R11
	DECQ    AX
	JNZ     smexp

smexptail:
	TESTQ      R13, R13
	JZ         smexpnext
	VMASKMOVPS (R10), Y14, Y0
	SMEXP(Y5)
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
	SMSUM(Y5, Y4)
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
	SMDIV(Y5)
	VMOVUPS Y0, (R11)
	ADDQ    $32, R11
	DECQ    AX
	JNZ     smdiv

smdivtail:
	TESTQ      R13, R13
	JZ         smdivnext
	VMASKMOVPS (R11), Y14, Y0
	SMDIV(Y5)
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

// func attentionRows8(dst, q, k, v, ws *float32, la, lb, dh, ld int, qkScale, avScale float32)
//
// One (batch, head) pair of attention, la ≥ 1 query rows against lb ≥ 1
// keys, heads dh ≥ 1 wide, every row ld floats after the last: the query
// row i at q + i·ld, key and value row j at k + j·ld and v + j·ld, output
// row i at dst + i·ld. Eight query rows at a time (GROUP), one per lane:
//
//   - the group's query columns into ws[p·8 + lane] (a gather each);
//   - the score column j into ws[8·dh + j·8 + lane]: Σ_p q·k from +0, p
//     ascending, product and sum rounded apart, then × qkScale — dotCols'
//     sequence — four keys at a time while four are left; the running
//     maximum of the columns (SMMAX) taken as they come;
//   - the softmax of softmaxRows down the columns: SMEXP in place and SMSUM
//     of it, then SMDIV;
//   - per real row, columns of the output eight at a time (the last masked
//     to dh): Σ_j p·v from +0, j ascending, rounded as in dotCols, then
//     × avScale — four rows at a time while four are left.
//
// A last group of fewer than eight rows repeats its last row in the spare
// lanes; only its real rows are written. ws holds 8·(dh + lb) floats.
TEXT ·attentionRows8(SB), NOSPLIT, $32-80
	MOVQ         la+40(FP), CX
	MOVQ         CX, 8(SP)
	MOVQ         q+8(FP), AX
	MOVQ         AX, 16(SP)
	MOVQ         dst+0(FP), AX
	MOVQ         AX, 24(SP)
	MOVQ         dh+56(FP), AX
	DECQ         AX
	ANDQ         $7, AX
	MOVQ         $7, BX
	SUBQ         AX, BX
	LEAQ         rowc<>+32(SB), R9
	VMOVUPS      (R9)(BX*4), Y14
	MOVQ         ld+64(FP), DX
	MOVQ         DX, R12
	SHLQ         $2, R12

atgroup:
	MOVQ  8(SP), CX
	GROUP(0(SP))
	LEAQ  (R12)(R12*2), R13
	MOVQ  ws+32(FP), R9
	MOVQ  16(SP), R10
	MOVQ  dh+56(FP), AX

atqcol:
	COLUMN(R10, Y5)
	VMOVUPS Y5, (R9)
	ADDQ    $4, R10
	ADDQ    $32, R9
	DECQ    AX
	JNZ     atqcol
	VBROADCASTSS qkScale+72(FP), Y3
	VBROADCASTSS rowc<>+96(SB), Y13
	MOVQ         k+16(FP), R11
	MOVQ         R9, R14
	MOVQ         lb+48(FP), BX
	CMPQ         BX, $4
	JLT          atqk1

atqk4:
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   ws+32(FP), R10
	MOVQ   R11, CX
	MOVQ   dh+56(FP), AX

atqk4p:
	VMOVUPS      (R10), Y1
	VBROADCASTSS (CX), Y2
	VBROADCASTSS (CX)(R12*1), Y8
	VBROADCASTSS (CX)(R12*2), Y9
	VBROADCASTSS (CX)(R13*1), Y10
	VMULPS       Y2, Y1, Y2
	VMULPS       Y8, Y1, Y8
	VMULPS       Y9, Y1, Y9
	VMULPS       Y10, Y1, Y10
	VADDPS       Y2, Y4, Y4
	VADDPS       Y8, Y5, Y5
	VADDPS       Y9, Y6, Y6
	VADDPS       Y10, Y7, Y7
	ADDQ         $32, R10
	ADDQ         $4, CX
	DECQ         AX
	JNZ          atqk4p
	VMULPS       Y3, Y4, Y4
	VMULPS       Y3, Y5, Y5
	VMULPS       Y3, Y6, Y6
	VMULPS       Y3, Y7, Y7
	SMMAX(Y4, Y13)
	SMMAX(Y5, Y13)
	SMMAX(Y6, Y13)
	SMMAX(Y7, Y13)
	VMOVUPS      Y4, (R14)
	VMOVUPS      Y5, 32(R14)
	VMOVUPS      Y6, 64(R14)
	VMOVUPS      Y7, 96(R14)
	ADDQ         $128, R14
	LEAQ         (R11)(R12*4), R11
	SUBQ         $4, BX
	CMPQ         BX, $4
	JGE          atqk4

atqk1:
	TESTQ BX, BX
	JZ    atsoft

atqk1col:
	VXORPS Y4, Y4, Y4
	MOVQ   ws+32(FP), R10
	MOVQ   R11, CX
	MOVQ   dh+56(FP), AX

atqk1p:
	VMOVUPS      (R10), Y1
	VBROADCASTSS (CX), Y2
	VMULPS       Y2, Y1, Y2
	VADDPS       Y2, Y4, Y4
	ADDQ         $32, R10
	ADDQ         $4, CX
	DECQ         AX
	JNZ          atqk1p
	VMULPS       Y3, Y4, Y4
	SMMAX(Y4, Y13)
	VMOVUPS      Y4, (R14)
	ADDQ         $32, R14
	ADDQ         R12, R11
	DECQ         BX
	JNZ          atqk1col

atsoft:
	VXORPS Y4, Y4, Y4
	MOVQ   R9, R14
	MOVQ   lb+48(FP), BX

atexp:
	VMOVUPS (R14), Y0
	SMEXP(Y13)
	VMOVUPS Y0, (R14)
	SMSUM(Y0, Y4)
	ADDQ    $32, R14
	DECQ    BX
	JNZ     atexp
	MOVQ    R9, R14
	MOVQ    lb+48(FP), BX

atdiv:
	VMOVUPS (R14), Y0
	SMDIV(Y4)
	VMOVUPS Y0, (R14)
	ADDQ    $32, R14
	DECQ    BX
	JNZ     atdiv
	VBROADCASTSS avScale+76(FP), Y3
	MOVQ         24(SP), CX
	MOVQ         R9, R10
	MOVQ         0(SP), BX

atav4:
	CMPQ BX, $4
	JLT  atav1
	XORQ R14, R14
	MOVQ dh+56(FP), R13

atav4blk:
	VPCMPEQD Y11, Y11, Y11
	CMPQ     R13, $8
	JGE      atav4full
	VMOVUPS  Y14, Y11

atav4full:
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   v+24(FP), R11
	ADDQ   R14, R11
	MOVQ   R10, SI
	MOVQ   lb+48(FP), AX

atav4j:
	VMASKMOVPS   (R11), Y11, Y1
	VBROADCASTSS (SI), Y2
	VBROADCASTSS 4(SI), Y8
	VBROADCASTSS 8(SI), Y9
	VBROADCASTSS 12(SI), Y10
	VMULPS       Y1, Y2, Y2
	VMULPS       Y1, Y8, Y8
	VMULPS       Y1, Y9, Y9
	VMULPS       Y1, Y10, Y10
	VADDPS       Y2, Y4, Y4
	VADDPS       Y8, Y5, Y5
	VADDPS       Y9, Y6, Y6
	VADDPS       Y10, Y7, Y7
	ADDQ         R12, R11
	ADDQ         $32, SI
	DECQ         AX
	JNZ          atav4j
	VMULPS       Y3, Y4, Y4
	VMULPS       Y3, Y5, Y5
	VMULPS       Y3, Y6, Y6
	VMULPS       Y3, Y7, Y7
	MOVQ         CX, R11
	VMASKMOVPS   Y4, Y11, (R11)(R14*1)
	ADDQ         R12, R11
	VMASKMOVPS   Y5, Y11, (R11)(R14*1)
	ADDQ         R12, R11
	VMASKMOVPS   Y6, Y11, (R11)(R14*1)
	ADDQ         R12, R11
	VMASKMOVPS   Y7, Y11, (R11)(R14*1)
	ADDQ         $32, R14
	SUBQ         $8, R13
	JG           atav4blk
	LEAQ         (CX)(R12*4), CX
	ADDQ         $16, R10
	SUBQ         $4, BX
	JMP          atav4

atav1:
	TESTQ BX, BX
	JZ    atnext

atav1row:
	XORQ R14, R14
	MOVQ dh+56(FP), R13

atav1blk:
	VPCMPEQD Y11, Y11, Y11
	CMPQ     R13, $8
	JGE      atav1full
	VMOVUPS  Y14, Y11

atav1full:
	VXORPS Y4, Y4, Y4
	MOVQ   v+24(FP), R11
	ADDQ   R14, R11
	MOVQ   R10, SI
	MOVQ   lb+48(FP), AX

atav1j:
	VMASKMOVPS   (R11), Y11, Y1
	VBROADCASTSS (SI), Y2
	VMULPS       Y1, Y2, Y2
	VADDPS       Y2, Y4, Y4
	ADDQ         R12, R11
	ADDQ         $32, SI
	DECQ         AX
	JNZ          atav1j
	VMULPS       Y3, Y4, Y4
	VMASKMOVPS   Y4, Y11, (CX)(R14*1)
	ADDQ         $32, R14
	SUBQ         $8, R13
	JG           atav1blk
	ADDQ         R12, CX
	ADDQ         $4, R10
	DECQ         BX
	JNZ          atav1row

atnext:
	MOVQ DX, AX
	SHLQ $5, AX
	ADDQ AX, 16(SP)
	ADDQ AX, 24(SP)
	SUBQ $8, 8(SP)
	JG   atgroup
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
