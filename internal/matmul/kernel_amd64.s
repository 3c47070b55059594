#include "textflag.h"

// STEP is one reduction step of the 4×16 micro-kernel, shared by both entry
// points below so they cannot drift apart: Y0..Y7 hold the accumulators (two
// ymm per row), A0..A3 address one a element per row, BX the 64-byte panel
// line. One VFMADD231PS per accumulator, so every element sees exactly the
// one rounding per step of the scalar loop `acc = fma32(av, v, acc)`.
#define STEP(A0, A1, A2, A3) \
	VMOVUPS      (BX), Y8      \
	VMOVUPS      32(BX), Y9    \
	VBROADCASTSS A0, Y10       \
	VBROADCASTSS A1, Y11       \
	VBROADCASTSS A2, Y12       \
	VBROADCASTSS A3, Y13       \
	VFMADD231PS  Y8, Y10, Y0   \
	VFMADD231PS  Y9, Y10, Y1   \
	VFMADD231PS  Y8, Y11, Y2   \
	VFMADD231PS  Y9, Y11, Y3   \
	VFMADD231PS  Y8, Y12, Y4   \
	VFMADD231PS  Y9, Y12, Y5   \
	VFMADD231PS  Y8, Y13, Y6   \
	VFMADD231PS  Y9, Y13, Y7   \
	ADDQ         $64, BX

#define ZERO_ACCUMULATORS \
	VXORPS Y0, Y0, Y0 \
	VXORPS Y1, Y1, Y1 \
	VXORPS Y2, Y2, Y2 \
	VXORPS Y3, Y3, Y3 \
	VXORPS Y4, Y4, Y4 \
	VXORPS Y5, Y5, Y5 \
	VXORPS Y6, Y6, Y6 \
	VXORPS Y7, Y7, Y7

// STEP4 is STEP on four pixels R8 bytes apart from SI (R9 = 3·R8), reading
// the float D bytes into the channel pack.
#define STEP4(D) STEP(D(SI), D(SI)(R8*1), D(SI)(R8*2), D(SI)(R9*1))

// STEP12 is STEP on 512-bit registers, three times as tall: twelve pixels R8
// bytes apart — rows 0–3 from SI, 4–7 from R10, 8–11 from R13 — against the
// one zmm that holds the whole panel line, into the accumulators Z0..Z11.
// The a elements are embedded broadcasts; one VFMADD231PS per element as in
// STEP, so a row has the same bits at either width.
#define STEP12(D) \
	VMOVUPS          (BX), Z12              \
	VFMADD231PS.BCST D(SI), Z12, Z0         \
	VFMADD231PS.BCST D(SI)(R8*1), Z12, Z1   \
	VFMADD231PS.BCST D(SI)(R8*2), Z12, Z2   \
	VFMADD231PS.BCST D(SI)(R9*1), Z12, Z3   \
	VFMADD231PS.BCST D(R10), Z12, Z4        \
	VFMADD231PS.BCST D(R10)(R8*1), Z12, Z5  \
	VFMADD231PS.BCST D(R10)(R8*2), Z12, Z6  \
	VFMADD231PS.BCST D(R10)(R9*1), Z12, Z7  \
	VFMADD231PS.BCST D(R13), Z12, Z8        \
	VFMADD231PS.BCST D(R13)(R8*1), Z12, Z9  \
	VFMADD231PS.BCST D(R13)(R8*2), Z12, Z10 \
	VFMADD231PS.BCST D(R13)(R9*1), Z12, Z11 \
	ADDQ             $64, BX

// STEP12X2 is STEP12 over two adjacent panels, a tile of twelve pixels × 32
// columns: the two panel lines, R15 bytes apart, in Z24 and Z25, and each
// pixel's a element broadcast once (Z26..Z31) against both — panel 0 into
// Z0..Z11, panel 1 into Z12..Z23. That is 14 loads for 24 VFMADD231PS where
// STEP12 spends 13 on 12, so the two load ports no longer set the pace; one
// rounded multiply-add per element and step as before.
#define STEP12X2(D) \
	VMOVUPS      (BX), Z24         \
	VMOVUPS      (BX)(R15*1), Z25  \
	VBROADCASTSS D(SI), Z26        \
	VBROADCASTSS D(SI)(R8*1), Z27  \
	VBROADCASTSS D(SI)(R8*2), Z28  \
	VBROADCASTSS D(SI)(R9*1), Z29  \
	VBROADCASTSS D(R10), Z30       \
	VBROADCASTSS D(R10)(R8*1), Z31 \
	VFMADD231PS  Z24, Z26, Z0      \
	VFMADD231PS  Z25, Z26, Z12     \
	VFMADD231PS  Z24, Z27, Z1      \
	VFMADD231PS  Z25, Z27, Z13     \
	VFMADD231PS  Z24, Z28, Z2      \
	VFMADD231PS  Z25, Z28, Z14     \
	VFMADD231PS  Z24, Z29, Z3      \
	VFMADD231PS  Z25, Z29, Z15     \
	VFMADD231PS  Z24, Z30, Z4      \
	VFMADD231PS  Z25, Z30, Z16     \
	VFMADD231PS  Z24, Z31, Z5      \
	VFMADD231PS  Z25, Z31, Z17     \
	VBROADCASTSS D(R10)(R8*2), Z26 \
	VBROADCASTSS D(R10)(R9*1), Z27 \
	VBROADCASTSS D(R13), Z28       \
	VBROADCASTSS D(R13)(R8*1), Z29 \
	VBROADCASTSS D(R13)(R8*2), Z30 \
	VBROADCASTSS D(R13)(R9*1), Z31 \
	VFMADD231PS  Z24, Z26, Z6      \
	VFMADD231PS  Z25, Z26, Z18     \
	VFMADD231PS  Z24, Z27, Z7      \
	VFMADD231PS  Z25, Z27, Z19     \
	VFMADD231PS  Z24, Z28, Z8      \
	VFMADD231PS  Z25, Z28, Z20     \
	VFMADD231PS  Z24, Z29, Z9      \
	VFMADD231PS  Z25, Z29, Z21     \
	VFMADD231PS  Z24, Z30, Z10     \
	VFMADD231PS  Z25, Z30, Z22     \
	VFMADD231PS  Z24, Z31, Z11     \
	VFMADD231PS  Z25, Z31, Z23     \
	ADDQ         $64, BX

#define ZERO4(V0, V1, V2, V3) \
	VPXORQ V0, V0, V0 \
	VPXORQ V1, V1, V1 \
	VPXORQ V2, V2, V2 \
	VPXORQ V3, V3, V3

#define ZERO12 \
	ZERO4(Z0, Z1, Z2, Z3) \
	ZERO4(Z4, Z5, Z6, Z7) \
	ZERO4(Z8, Z9, Z10, Z11)

// ZERO24 clears the accumulators of the two-panel tile.
#define ZERO24 \
	ZERO12                     \
	ZERO4(Z12, Z13, Z14, Z15) \
	ZERO4(Z16, Z17, Z18, Z19) \
	ZERO4(Z20, Z21, Z22, Z23)

// ROWS12 points R10 and R13 at rows 4 and 8 of the tile whose row 0 is SI;
// NEXT4 and NEXT12 move the row pointers on by one channel pack, R11 bytes.
#define ROWS4
#define ROWS12 \
	LEAQ (SI)(R8*4), R10 \
	LEAQ (R10)(R8*4), R13
#define NEXT4 ADDQ R11, SI
#define NEXT12 \
	ADDQ R11, SI  \
	ADDQ R11, R10 \
	ADDQ R11, R13

// TAPWALK is the reduction of the NC4HW4 kernels at both widths, one copy so
// they cannot drift: R12 taps from the list at R14; tap t starts A + t.A
// floats into the source and at row t.B of PANEL, and its step c < DX reads
// lane c%4 of channel pack c/4, R11 bytes after pack 0 — four steps per
// 64-byte line when the pixels are adjacent. R8 is the bytes between pixels,
// R9 three times that. STEP is STEP4, STEP12 or STEP12X2 (whose second
// panel is R15 bytes after the first), with the matching ROWS and NEXT. Taps in list order, channels ascending, every accumulator from +0;
// the pad lanes of a partial last pack are never read. Falls through to the
// caller's epilogue with AX, BX, CX, DX, SI, DI, R12 and R14 spent.
#define TAPWALK(STEP, ROWS, NEXT, A, PANEL) \
	MOVQ  DX, DI         \
	SHRQ  $2, DX         \
	ANDQ  $3, DI         \
	TESTQ R12, R12       \
	JZ    epilogue       \
taploop:                 \
	MOVQ  0(R14), SI     \
	MOVQ  8(R14), BX     \
	ADDQ  $16, R14       \
	MOVQ  A, AX          \
	LEAQ  (AX)(SI*4), SI \
	ROWS                 \
	SHLQ  $6, BX         \
	ADDQ  PANEL, BX      \
	MOVQ  DX, AX         \
	TESTQ AX, AX         \
	JZ    lanes          \
packloop:                \
	STEP(0)              \
	STEP(4)              \
	STEP(8)              \
	STEP(12)             \
	NEXT                 \
	DECQ  AX             \
	JNZ   packloop       \
lanes:                   \
	MOVQ  DI, CX         \
	TESTQ CX, CX         \
	JZ    nexttap        \
	STEP(0)              \
	DECQ  CX             \
	JZ    nexttap        \
	STEP(4)              \
	DECQ  CX             \
	JZ    nexttap        \
	STEP(8)              \
nexttap:                 \
	DECQ  R12            \
	JNZ   taploop        \
epilogue:

// BIAS_CLAMP_STORE_NC4 is the NC4HW4 epilogue of both convolution kernels
// below: the 4×16 float32 tile in Y0..Y7 gets the 16 biases at (R13) added
// and is clamped to [Y10, Y11]; then it is transposed with 128-bit lane
// permutes into R12 ≤ 4 output channel packs of 4 pixels × 4 channels (64
// contiguous bytes each), DX floats apart from DI on — pack j is the j-th
// 128-bit quarter of every row, rows (pixels) 0,1 in one ymm, rows 2,3 in
// the next — and control jumps to DONE.
//
// The clamp is max(lo, v) then min(hi, v) with v as the SECOND source of
// VMAXPS/VMINPS: those return the second source when an operand is NaN or
// both are zero, so NaN stays NaN and -0 stays -0 exactly as in the scalar
// `if v < lo { v = lo }; if v > hi { v = hi }`.
#define BIAS_CLAMP_STORE_NC4(DONE) \
	SHLQ       $2, DX          \
	VMOVUPS    (R13), Y8       \
	VMOVUPS    32(R13), Y9     \
	VADDPS     Y8, Y0, Y0      \
	VADDPS     Y9, Y1, Y1      \
	VADDPS     Y8, Y2, Y2      \
	VADDPS     Y9, Y3, Y3      \
	VADDPS     Y8, Y4, Y4      \
	VADDPS     Y9, Y5, Y5      \
	VADDPS     Y8, Y6, Y6      \
	VADDPS     Y9, Y7, Y7      \
	VMAXPS     Y0, Y10, Y0     \
	VMAXPS     Y1, Y10, Y1     \
	VMAXPS     Y2, Y10, Y2     \
	VMAXPS     Y3, Y10, Y3     \
	VMAXPS     Y4, Y10, Y4     \
	VMAXPS     Y5, Y10, Y5     \
	VMAXPS     Y6, Y10, Y6     \
	VMAXPS     Y7, Y10, Y7     \
	VMINPS     Y0, Y11, Y0     \
	VMINPS     Y1, Y11, Y1     \
	VMINPS     Y2, Y11, Y2     \
	VMINPS     Y3, Y11, Y3     \
	VMINPS     Y4, Y11, Y4     \
	VMINPS     Y5, Y11, Y5     \
	VMINPS     Y6, Y11, Y6     \
	VMINPS     Y7, Y11, Y7     \
	VPERM2F128 $0x20, Y2, Y0, Y8 \
	VPERM2F128 $0x20, Y6, Y4, Y9 \
	VMOVUPS    Y8, (DI)        \
	VMOVUPS    Y9, 32(DI)      \
	DECQ       R12             \
	JZ         DONE            \
	ADDQ       DX, DI          \
	VPERM2F128 $0x31, Y2, Y0, Y8 \
	VPERM2F128 $0x31, Y6, Y4, Y9 \
	VMOVUPS    Y8, (DI)        \
	VMOVUPS    Y9, 32(DI)      \
	DECQ       R12             \
	JZ         DONE            \
	ADDQ       DX, DI          \
	VPERM2F128 $0x20, Y3, Y1, Y8 \
	VPERM2F128 $0x20, Y7, Y5, Y9 \
	VMOVUPS    Y8, (DI)        \
	VMOVUPS    Y9, 32(DI)      \
	DECQ       R12             \
	JZ         DONE            \
	ADDQ       DX, DI          \
	VPERM2F128 $0x31, Y3, Y1, Y8 \
	VPERM2F128 $0x31, Y7, Y5, Y9 \
	VMOVUPS    Y8, (DI)        \
	VMOVUPS    Y9, 32(DI)      \
	JMP        DONE

// func mulPanel4x16(dst *float32, ldd int, a *float32, lda, k int, panel *float32)
//
// dst[r*ldd+l] = Σ_p a[r*lda+p] · panel[p*16+l] for r < 4, l < 16, summed
// in ascending p from +0. Requires k ≥ 1.
TEXT ·mulPanel4x16(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), DX
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R11
	MOVQ k+32(FP), CX
	MOVQ panel+40(FP), BX
	SHLQ $2, DX
	SHLQ $2, R11
	LEAQ (SI)(R11*1), R8
	LEAQ (R8)(R11*1), R9
	LEAQ (R9)(R11*1), R10
	ZERO_ACCUMULATORS
	XORQ AX, AX

loop:
	STEP((SI)(AX*4), (R8)(AX*4), (R9)(AX*4), (R10)(AX*4))
	INCQ AX
	CMPQ AX, CX
	JLT  loop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    DX, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    DX, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    DX, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func mulPanelNC4(dst *float32, dstPack, packs int, a *float32, aPack, aPix int, taps *Tap, ntaps, kc int, panel, bias *float32, lo, hi float32)
//
// The same 4×16 tile over NC4HW4 operands, as a convolution. Row r is pixel
// r, aPix floats after pixel 0, the channel packs aPack floats apart; the
// reduction is TAPWALK over the tap list (a 1×1 convolution is the one tap
// {0, 0}). After the sum each of the 16 columns gets its bias added and is
// clamped to [lo, hi]; then the tile is transposed into `packs` ≤ 4 output
// channel packs of 4 pixels × 4 channels, dstPack floats apart
// (BIAS_CLAMP_STORE_NC4). An empty tap list stores clamp(bias).
TEXT ·mulPanelNC4(SB), NOSPLIT, $0-96
	MOVQ aPack+32(FP), R11
	MOVQ aPix+40(FP), R8
	MOVQ taps+48(FP), R14
	MOVQ ntaps+56(FP), R12
	MOVQ kc+64(FP), DX
	SHLQ $2, R11
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
	ZERO_ACCUMULATORS
	TAPWALK(STEP4, ROWS4, NEXT4, a+24(FP), panel+72(FP))
	MOVQ dst+0(FP), DI
	MOVQ dstPack+8(FP), DX
	MOVQ packs+16(FP), R12
	MOVQ bias+80(FP), R13
	VBROADCASTSS lo+88(FP), Y10
	VBROADCASTSS hi+92(FP), Y11
	BIAS_CLAMP_STORE_NC4(done)

done:
	VZEROUPPER
	RET

// FINISH12 is the bias add and clamp of BIAS_CLAMP_STORE_NC4 on one zmm row
// V: bias in BIAS, [lo, hi] in LO, HI, the value as the second source of
// VMAXPS/VMINPS.
#define FINISH12(V, BIAS, LO, HI) \
	VADDPS BIAS, V, V \
	VMAXPS V, LO, V   \
	VMINPS V, HI, V

// PACK4 stores lane LANE (an immediate with the lane number in all four
// fields) of the rows V0..V3 — one 128-bit quarter of each, in row order —
// as the 64 bytes at OFF(DI): a transpose through T0 and T1.
#define PACK4(LANE, V0, V1, V2, V3, T0, T1, OFF) \
	VSHUFF32X4 LANE, V1, V0, T0  \
	VSHUFF32X4 LANE, V3, V2, T1  \
	VSHUFF32X4 $0x88, T1, T0, T0 \
	VMOVUPS    T0, OFF(DI)

// PACK12 stores one output channel pack of the 12×16 tile in V0..V11 at DI:
// lane LANE of every row, the twelve pixels in row order — PACK4 of rows
// 0–3, 4–7 and 8–11, through T0 and T1.
#define PACK12(LANE, V0, V1, V2, V3, V4, V5, V6, V7, V8, V9, V10, V11, T0, T1) \
	PACK4(LANE, V0, V1, V2, V3, T0, T1, 0)    \
	PACK4(LANE, V4, V5, V6, V7, T0, T1, 64)   \
	PACK4(LANE, V8, V9, V10, V11, T0, T1, 128)

// func mulPanel12NC4(dst *float32, dstPack, packs int, a *float32, aPack, aPix int, taps *Tap, ntaps, kc int, panel, bias *float32, lo, hi float32)
//
// mulPanelNC4 on AVX-512F: a tile of 12 pixels × the same 16-float panel,
// the same walk (TAPWALK), the same epilogue per element — bias, clamp, then
// `packs` ≤ 4 channel packs of 12 pixels × 4 channels, dstPack floats apart.
TEXT ·mulPanel12NC4(SB), NOSPLIT, $0-96
	MOVQ aPack+32(FP), R11
	MOVQ aPix+40(FP), R8
	MOVQ taps+48(FP), R14
	MOVQ ntaps+56(FP), R12
	MOVQ kc+64(FP), DX
	SHLQ $2, R11
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
	ZERO12
	TAPWALK(STEP12, ROWS12, NEXT12, a+24(FP), panel+72(FP))
	MOVQ dst+0(FP), DI
	MOVQ dstPack+8(FP), DX
	MOVQ packs+16(FP), R12
	MOVQ bias+80(FP), R13
	SHLQ $2, DX
	VMOVUPS      (R13), Z12
	VBROADCASTSS lo+88(FP), Z13
	VBROADCASTSS hi+92(FP), Z14
	FINISH12(Z0, Z12, Z13, Z14)
	FINISH12(Z1, Z12, Z13, Z14)
	FINISH12(Z2, Z12, Z13, Z14)
	FINISH12(Z3, Z12, Z13, Z14)
	FINISH12(Z4, Z12, Z13, Z14)
	FINISH12(Z5, Z12, Z13, Z14)
	FINISH12(Z6, Z12, Z13, Z14)
	FINISH12(Z7, Z12, Z13, Z14)
	FINISH12(Z8, Z12, Z13, Z14)
	FINISH12(Z9, Z12, Z13, Z14)
	FINISH12(Z10, Z12, Z13, Z14)
	FINISH12(Z11, Z12, Z13, Z14)
	PACK12($0x00, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z16, Z17)
	DECQ R12
	JZ   done
	ADDQ DX, DI
	PACK12($0x55, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z16, Z17)
	DECQ R12
	JZ   done
	ADDQ DX, DI
	PACK12($0xAA, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z16, Z17)
	DECQ R12
	JZ   done
	ADDQ DX, DI
	PACK12($0xFF, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z16, Z17)

done:
	VZEROUPPER
	RET

// func mulPanel12x32NC4(dst *float32, dstPack, packs int, a *float32, aPack, aPix int, taps *Tap, ntaps, kc int, panel *float32, k int, bias *float32, lo, hi float32)
//
// mulPanel12NC4 over two adjacent panels of k rows, the second k·16 floats
// after panel: a tile of 12 pixels × 32 columns on STEP12X2, the same walk
// and the same epilogue per element — the 32 biases at bias, then 4 < packs
// ≤ 8 channel packs, the first panel's four and as many of the second's as
// remain.
TEXT ·mulPanel12x32NC4(SB), NOSPLIT, $0-104
	MOVQ aPack+32(FP), R11
	MOVQ aPix+40(FP), R8
	MOVQ taps+48(FP), R14
	MOVQ ntaps+56(FP), R12
	MOVQ kc+64(FP), DX
	MOVQ k+80(FP), R15
	SHLQ $2, R11
	SHLQ $2, R8
	SHLQ $6, R15
	LEAQ (R8)(R8*2), R9
	ZERO24
	TAPWALK(STEP12X2, ROWS12, NEXT12, a+24(FP), panel+72(FP))
	MOVQ dst+0(FP), DI
	MOVQ dstPack+8(FP), DX
	MOVQ packs+16(FP), R12
	MOVQ bias+88(FP), R13
	SHLQ $2, DX
	VMOVUPS      (R13), Z24
	VMOVUPS      64(R13), Z25
	VBROADCASTSS lo+96(FP), Z26
	VBROADCASTSS hi+100(FP), Z27
	FINISH12(Z0, Z24, Z26, Z27)
	FINISH12(Z1, Z24, Z26, Z27)
	FINISH12(Z2, Z24, Z26, Z27)
	FINISH12(Z3, Z24, Z26, Z27)
	FINISH12(Z4, Z24, Z26, Z27)
	FINISH12(Z5, Z24, Z26, Z27)
	FINISH12(Z6, Z24, Z26, Z27)
	FINISH12(Z7, Z24, Z26, Z27)
	FINISH12(Z8, Z24, Z26, Z27)
	FINISH12(Z9, Z24, Z26, Z27)
	FINISH12(Z10, Z24, Z26, Z27)
	FINISH12(Z11, Z24, Z26, Z27)
	FINISH12(Z12, Z25, Z26, Z27)
	FINISH12(Z13, Z25, Z26, Z27)
	FINISH12(Z14, Z25, Z26, Z27)
	FINISH12(Z15, Z25, Z26, Z27)
	FINISH12(Z16, Z25, Z26, Z27)
	FINISH12(Z17, Z25, Z26, Z27)
	FINISH12(Z18, Z25, Z26, Z27)
	FINISH12(Z19, Z25, Z26, Z27)
	FINISH12(Z20, Z25, Z26, Z27)
	FINISH12(Z21, Z25, Z26, Z27)
	FINISH12(Z22, Z25, Z26, Z27)
	FINISH12(Z23, Z25, Z26, Z27)
	PACK12($0x00, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z24, Z25)
	ADDQ DX, DI
	PACK12($0x55, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z24, Z25)
	ADDQ DX, DI
	PACK12($0xAA, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z24, Z25)
	ADDQ DX, DI
	PACK12($0xFF, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z24, Z25)
	SUBQ $4, R12
	ADDQ DX, DI
	PACK12($0x00, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z24, Z25)
	DECQ R12
	JZ   done
	ADDQ DX, DI
	PACK12($0x55, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z24, Z25)
	DECQ R12
	JZ   done
	ADDQ DX, DI
	PACK12($0xAA, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z24, Z25)
	DECQ R12
	JZ   done
	ADDQ DX, DI
	PACK12($0xFF, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z24, Z25)

done:
	VZEROUPPER
	RET

// zeroTap is the tap list of a plain product: the rows themselves against
// panel rows 0….
DATA zeroTap<>+0(SB)/8, $0
DATA zeroTap<>+8(SB)/8, $0
GLOBL zeroTap<>(SB), RODATA, $16

// func mulPanel12x16(dst *float32, ldd int, a *float32, lda, k int, panel *float32)
//
// mulPanel4x16 on AVX-512F, twelve rows: the row-major operand is the
// NC4HW4 walk with packs of four floats 16 bytes apart and rows lda floats
// apart, one tap. Requires k ≥ 1.
TEXT ·mulPanel12x16(SB), NOSPLIT, $0-48
	MOVQ lda+24(FP), R8
	MOVQ k+32(FP), DX
	MOVQ $16, R11
	LEAQ zeroTap<>(SB), R14
	MOVQ $1, R12
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
	ZERO12
	TAPWALK(STEP12, ROWS12, NEXT12, a+16(FP), panel+40(FP))
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), DX
	SHLQ $2, DX
	VMOVUPS Z0, (DI)
	ADDQ    DX, DI
	VMOVUPS Z1, (DI)
	ADDQ    DX, DI
	VMOVUPS Z2, (DI)
	ADDQ    DX, DI
	VMOVUPS Z3, (DI)
	ADDQ    DX, DI
	VMOVUPS Z4, (DI)
	ADDQ    DX, DI
	VMOVUPS Z5, (DI)
	ADDQ    DX, DI
	VMOVUPS Z6, (DI)
	ADDQ    DX, DI
	VMOVUPS Z7, (DI)
	ADDQ    DX, DI
	VMOVUPS Z8, (DI)
	ADDQ    DX, DI
	VMOVUPS Z9, (DI)
	ADDQ    DX, DI
	VMOVUPS Z10, (DI)
	ADDQ    DX, DI
	VMOVUPS Z11, (DI)
	VZEROUPPER
	RET

// func mulPanel12x32(dst *float32, ldd int, a *float32, lda, k int, panel *float32)
//
// mulPanel12x16 over two adjacent panels, the second k·16 floats after
// panel: twelve rows × 32 columns on STEP12X2, row r's first 16 columns
// from Z(r), the next 16 from Z(12+r). Requires k ≥ 1.
TEXT ·mulPanel12x32(SB), NOSPLIT, $0-48
	MOVQ lda+24(FP), R8
	MOVQ k+32(FP), DX
	MOVQ $16, R11
	LEAQ zeroTap<>(SB), R14
	MOVQ $1, R12
	MOVQ DX, R15
	SHLQ $2, R8
	SHLQ $6, R15
	LEAQ (R8)(R8*2), R9
	ZERO24
	TAPWALK(STEP12X2, ROWS12, NEXT12, a+16(FP), panel+40(FP))
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), DX
	SHLQ $2, DX
	VMOVUPS Z0, (DI)
	VMOVUPS Z12, 64(DI)
	ADDQ    DX, DI
	VMOVUPS Z1, (DI)
	VMOVUPS Z13, 64(DI)
	ADDQ    DX, DI
	VMOVUPS Z2, (DI)
	VMOVUPS Z14, 64(DI)
	ADDQ    DX, DI
	VMOVUPS Z3, (DI)
	VMOVUPS Z15, 64(DI)
	ADDQ    DX, DI
	VMOVUPS Z4, (DI)
	VMOVUPS Z16, 64(DI)
	ADDQ    DX, DI
	VMOVUPS Z5, (DI)
	VMOVUPS Z17, 64(DI)
	ADDQ    DX, DI
	VMOVUPS Z6, (DI)
	VMOVUPS Z18, 64(DI)
	ADDQ    DX, DI
	VMOVUPS Z7, (DI)
	VMOVUPS Z19, 64(DI)
	ADDQ    DX, DI
	VMOVUPS Z8, (DI)
	VMOVUPS Z20, 64(DI)
	ADDQ    DX, DI
	VMOVUPS Z9, (DI)
	VMOVUPS Z21, 64(DI)
	ADDQ    DX, DI
	VMOVUPS Z10, (DI)
	VMOVUPS Z22, 64(DI)
	ADDQ    DX, DI
	VMOVUPS Z11, (DI)
	VMOVUPS Z23, 64(DI)
	VZEROUPPER
	RET

// PIXEL adds one pixel's channel quad to its two accumulators C0, C1: the
// four bytes at A are broadcast, widened to int16 by EXT (VPMOVSXBW for a
// signed left operand, VPMOVZXBW for an unsigned one) — int32 lanes
// (b0,b1),(b2,b3),(b0,b1),… — and multiplied against the quad's first two
// weight vectors Y8, Y9; the pair-swapped copy against the other two, Y10,
// Y11 (see quadIndex). VPMADDWD's pair sums cannot saturate for byte
// operands and VPADDD wraps like Go's int32 +=.
#define PIXEL(EXT, A, C0, C1) \
	VPBROADCASTD A, X12       \
	EXT          X12, Y12     \
	VPSHUFD      $0xB1, Y12, Y13 \
	VPMADDWD     Y8, Y12, Y14 \
	VPMADDWD     Y9, Y12, Y15 \
	VPADDD       Y14, C0, C0  \
	VPADDD       Y15, C1, C1  \
	VPMADDWD     Y10, Y13, Y14 \
	VPMADDWD     Y11, Y13, Y15 \
	VPADDD       Y14, C0, C0  \
	VPADDD       Y15, C1, C1

// QUAD is one reduction step of the int8 kernel: the channel quad at SI of
// four pixels, R8 bytes apart (R9 = 3·R8), against the 128-byte quad at BX.
#define QUAD(EXT) \
	VMOVDQU (BX), Y8    \
	VMOVDQU 32(BX), Y9  \
	VMOVDQU 64(BX), Y10 \
	VMOVDQU 96(BX), Y11 \
	PIXEL(EXT, (SI), Y0, Y1)       \
	PIXEL(EXT, (SI)(R8*1), Y2, Y3) \
	PIXEL(EXT, (SI)(R8*2), Y4, Y5) \
	PIXEL(EXT, (SI)(R9*1), Y6, Y7) \
	ADDQ    $128, BX

// func mulPanelInt8(dst unsafe.Pointer, dstStride, packs int, a *uint8, aQuad, aPix int, taps *Tap, ntaps, kq int, panel *int16, scale, bias *float32, lo, hi float32, unsigned bool)
//
// The 4×16 tile over bytes, int32 accumulators: mulPanelNC4's walk — tap t
// starts at a + t.A bytes and at panel row t.B (16 int16 each, a multiple of
// 4), and steps through kq ≥ 1 channel quads aQuad bytes apart — with QUAD as
// the step. The sums are exact, so no order is promised. With scale nil the
// tile is stored as four rows of 16 int32, dstStride apart; otherwise it is
// converted to float32, multiplied by the 16 scales (rounded), and finished
// by BIAS_CLAMP_STORE_NC4.
TEXT ·mulPanelInt8(SB), NOSPLIT, $0-105
	MOVQ    a+24(FP), R10
	MOVQ    aQuad+32(FP), R11
	MOVQ    aPix+40(FP), R8
	MOVQ    taps+48(FP), R14
	MOVQ    ntaps+56(FP), R12
	MOVQ    kq+64(FP), DX
	MOVQ    panel+72(FP), R13
	MOVBQZX unsigned+104(FP), DI
	LEAQ    (R8)(R8*2), R9
	ZERO_ACCUMULATORS
	TESTQ   R12, R12
	JZ      int8epilogue

int8taploop:
	MOVQ  0(R14), SI
	MOVQ  8(R14), BX
	ADDQ  $16, R14
	ADDQ  R10, SI
	SHLQ  $5, BX
	ADDQ  R13, BX
	MOVQ  DX, AX
	TESTQ DI, DI
	JNZ   unsignedquads

signedquads:
	QUAD(VPMOVSXBW)
	ADDQ R11, SI
	DECQ AX
	JNZ  signedquads
	JMP  int8nexttap

unsignedquads:
	QUAD(VPMOVZXBW)
	ADDQ R11, SI
	DECQ AX
	JNZ  unsignedquads

int8nexttap:
	DECQ R12
	JNZ  int8taploop

int8epilogue:
	MOVQ  dst+0(FP), DI
	MOVQ  dstStride+8(FP), DX
	MOVQ  scale+80(FP), R14
	TESTQ R14, R14
	JZ    int8raw
	MOVQ  packs+16(FP), R12
	MOVQ  bias+88(FP), R13
	VMOVUPS      (R14), Y8
	VMOVUPS      32(R14), Y9
	VBROADCASTSS lo+96(FP), Y10
	VBROADCASTSS hi+100(FP), Y11
	VCVTDQ2PS    Y0, Y0
	VCVTDQ2PS    Y1, Y1
	VCVTDQ2PS    Y2, Y2
	VCVTDQ2PS    Y3, Y3
	VCVTDQ2PS    Y4, Y4
	VCVTDQ2PS    Y5, Y5
	VCVTDQ2PS    Y6, Y6
	VCVTDQ2PS    Y7, Y7
	VMULPS       Y8, Y0, Y0
	VMULPS       Y9, Y1, Y1
	VMULPS       Y8, Y2, Y2
	VMULPS       Y9, Y3, Y3
	VMULPS       Y8, Y4, Y4
	VMULPS       Y9, Y5, Y5
	VMULPS       Y8, Y6, Y6
	VMULPS       Y9, Y7, Y7
	BIAS_CLAMP_STORE_NC4(int8done)

int8raw:
	SHLQ    $2, DX
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	ADDQ    DX, DI
	VMOVDQU Y2, (DI)
	VMOVDQU Y3, 32(DI)
	ADDQ    DX, DI
	VMOVDQU Y4, (DI)
	VMOVDQU Y5, 32(DI)
	ADDQ    DX, DI
	VMOVDQU Y6, (DI)
	VMOVDQU Y7, 32(DI)

int8done:
	VZEROUPPER
	RET

// signBytes is 0x80 in every byte. XORed into a signed activation quad it
// gives the unsigned v+128 that VPDPBUSD's left operand takes; as that left
// operand itself, against a weight quad, it gives 128·Σw per column — what
// the +128 added, which the signed mode subtracts.
DATA signBytes<>+0(SB)/4, $0x80808080
GLOBL signBytes<>(SB), RODATA|NOPTR, $4

// BCASTS and BCASTU broadcast the channel quad at A to the 16 dword lanes
// of Z: XORed with the 0x80 bytes in Z14 in the signed mode, the load
// folded into the XOR; as it is in the unsigned one.
#define BCASTS(A, Z) VPXORD.BCST A, Z14, Z
#define BCASTU(A, Z) VPBROADCASTD A, Z

// CORRS adds 128·(the four rows of the weight quad in Z12) to every column
// of Z15, the signed mode's correction; CORRU is the unsigned mode's
// nothing.
#define CORRS VPDPBUSD Z12, Z14, Z15
#define CORRU

// DOT4 adds the quads of four pixels — at BASE, BASE+R8, BASE+2·R8 and
// BASE+R9 — times the weight quad in Z12 to C0..C3, one VPDPBUSD each: a
// column's four byte products summed into its int32 lane, wrapping.
#define DOT4(BCAST, BASE, C0, C1, C2, C3) \
	BCAST((BASE), Z16)       \
	BCAST((BASE)(R8*1), Z17) \
	BCAST((BASE)(R8*2), Z18) \
	BCAST((BASE)(R9*1), Z19) \
	VPDPBUSD Z12, Z16, C0    \
	VPDPBUSD Z12, Z17, C1    \
	VPDPBUSD Z12, Z18, C2    \
	VPDPBUSD Z12, Z19, C3

// VQUAD4 and VQUAD12 are one channel quad of the four- and twelve-pixel
// VNNI tiles: the quad's 64 weight bytes at BX (column l's four rows in
// dword l), the correction, then one VPDPBUSD per pixel into Z0…; pixels
// 4–7 from R10 and 8–11 from R13 (ROWS12).
#define VQUAD4(BCAST, CORR) \
	VMOVDQU32 (BX), Z12             \
	CORR                            \
	DOT4(BCAST, SI, Z0, Z1, Z2, Z3) \
	ADDQ      $64, BX

#define VQUAD12(BCAST, CORR) \
	VMOVDQU32 (BX), Z12                \
	CORR                               \
	DOT4(BCAST, SI, Z0, Z1, Z2, Z3)    \
	DOT4(BCAST, R10, Z4, Z5, Z6, Z7)   \
	DOT4(BCAST, R13, Z8, Z9, Z10, Z11) \
	ADDQ      $64, BX

// VNNIWALK is the reduction of both VNNI kernels, mulPanelInt8's walk: R12
// taps from the list at R14; tap t starts t.A bytes after A and at row t.B
// of PANEL — quad t.B/4, 64 bytes each — and steps through DX quads R11
// bytes apart, of pixels R8 bytes apart (R9 = 3·R8). DI ≠ 0 is the unsigned
// mode; the two modes are two loops over QUAD. Falls through to the
// caller's epilogue with AX, BX, SI, R12 and R14 spent.
#define VNNIWALK(QUAD, ROWS, NEXT, A, PANEL) \
	TESTQ R12, R12      \
	JZ    epilogue      \
taploop:                \
	MOVQ  0(R14), SI    \
	MOVQ  8(R14), BX    \
	ADDQ  $16, R14      \
	ADDQ  A, SI         \
	ROWS                \
	SHLQ  $4, BX        \
	ADDQ  PANEL, BX     \
	MOVQ  DX, AX        \
	TESTQ DI, DI        \
	JNZ   unsignedquads \
signedquads:            \
	QUAD(BCASTS, CORRS) \
	NEXT                \
	DECQ  AX            \
	JNZ   signedquads   \
	JMP   nexttap       \
unsignedquads:          \
	QUAD(BCASTU, CORRU) \
	NEXT                \
	DECQ  AX            \
	JNZ   unsignedquads \
nexttap:                \
	DECQ  R12           \
	JNZ   taploop       \
epilogue:

// UNBIAS subtracts the signed mode's correction (zero in the unsigned one)
// from a row; REQUANT converts it to float32 and multiplies it by the
// scales in Z12 — mulPanelInt8's VCVTDQ2PS and VMULPS element for element.
#define UNBIAS(Z) VPSUBD Z15, Z, Z
#define REQUANT(Z) \
	VCVTDQ2PS Z, Z \
	VMULPS    Z12, Z, Z

// func mulPanel12Int8(dst unsafe.Pointer, dstStride, packs int, a *uint8, aQuad, aPix int, taps *Tap, ntaps, kq int, panel *int8, scale, bias *float32, lo, hi float32, unsigned bool)
//
// mulPanelInt8 on AVX-512 VNNI, twelve pixels: VNNIWALK over a panel in the
// VNNI layout, the signed correction subtracted, then mulPanelInt8's
// epilogue per element — twelve rows of 16 int32, dstStride apart, or
// converted, multiplied by the scales (rounded) and finished as
// mulPanel12NC4's tile is (FINISH12, PACK12): `packs` ≤ 4 channel packs of
// 12 pixels × 4 channels, dstStride floats apart.
TEXT ·mulPanel12Int8(SB), NOSPLIT, $0-105
	MOVQ         aQuad+32(FP), R11
	MOVQ         aPix+40(FP), R8
	MOVQ         taps+48(FP), R14
	MOVQ         ntaps+56(FP), R12
	MOVQ         kq+64(FP), DX
	MOVBQZX      unsigned+104(FP), DI
	LEAQ         (R8)(R8*2), R9
	VPBROADCASTD signBytes<>(SB), Z14
	VPXORQ       Z15, Z15, Z15
	ZERO12
	VNNIWALK(VQUAD12, ROWS12, NEXT12, a+24(FP), panel+72(FP))
	UNBIAS(Z0)
	UNBIAS(Z1)
	UNBIAS(Z2)
	UNBIAS(Z3)
	UNBIAS(Z4)
	UNBIAS(Z5)
	UNBIAS(Z6)
	UNBIAS(Z7)
	UNBIAS(Z8)
	UNBIAS(Z9)
	UNBIAS(Z10)
	UNBIAS(Z11)
	MOVQ  dst+0(FP), DI
	MOVQ  dstStride+8(FP), DX
	SHLQ  $2, DX
	MOVQ  scale+80(FP), R14
	TESTQ R14, R14
	JZ    raw
	MOVQ  packs+16(FP), R12
	MOVQ  bias+88(FP), R13
	VMOVUPS      (R14), Z12
	REQUANT(Z0)
	REQUANT(Z1)
	REQUANT(Z2)
	REQUANT(Z3)
	REQUANT(Z4)
	REQUANT(Z5)
	REQUANT(Z6)
	REQUANT(Z7)
	REQUANT(Z8)
	REQUANT(Z9)
	REQUANT(Z10)
	REQUANT(Z11)
	VMOVUPS      (R13), Z12
	VBROADCASTSS lo+96(FP), Z13
	VBROADCASTSS hi+100(FP), Z14
	FINISH12(Z0, Z12, Z13, Z14)
	FINISH12(Z1, Z12, Z13, Z14)
	FINISH12(Z2, Z12, Z13, Z14)
	FINISH12(Z3, Z12, Z13, Z14)
	FINISH12(Z4, Z12, Z13, Z14)
	FINISH12(Z5, Z12, Z13, Z14)
	FINISH12(Z6, Z12, Z13, Z14)
	FINISH12(Z7, Z12, Z13, Z14)
	FINISH12(Z8, Z12, Z13, Z14)
	FINISH12(Z9, Z12, Z13, Z14)
	FINISH12(Z10, Z12, Z13, Z14)
	FINISH12(Z11, Z12, Z13, Z14)
	PACK12($0x00, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z16, Z17)
	DECQ R12
	JZ   done
	ADDQ DX, DI
	PACK12($0x55, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z16, Z17)
	DECQ R12
	JZ   done
	ADDQ DX, DI
	PACK12($0xAA, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z16, Z17)
	DECQ R12
	JZ   done
	ADDQ DX, DI
	PACK12($0xFF, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z16, Z17)
	JMP  done

raw:
	VMOVDQU32 Z0, (DI)
	ADDQ      DX, DI
	VMOVDQU32 Z1, (DI)
	ADDQ      DX, DI
	VMOVDQU32 Z2, (DI)
	ADDQ      DX, DI
	VMOVDQU32 Z3, (DI)
	ADDQ      DX, DI
	VMOVDQU32 Z4, (DI)
	ADDQ      DX, DI
	VMOVDQU32 Z5, (DI)
	ADDQ      DX, DI
	VMOVDQU32 Z6, (DI)
	ADDQ      DX, DI
	VMOVDQU32 Z7, (DI)
	ADDQ      DX, DI
	VMOVDQU32 Z8, (DI)
	ADDQ      DX, DI
	VMOVDQU32 Z9, (DI)
	ADDQ      DX, DI
	VMOVDQU32 Z10, (DI)
	ADDQ      DX, DI
	VMOVDQU32 Z11, (DI)

done:
	VZEROUPPER
	RET

// func mulPanel4Int8(dst unsafe.Pointer, dstStride, packs int, a *uint8, aQuad, aPix int, taps *Tap, ntaps, kq int, panel *int8, scale, bias *float32, lo, hi float32, unsigned bool)
//
// mulPanel12Int8 for four pixels, the tile of runs shorter than twelve:
// Z0..Z3, the same walk, the same epilogue per element, one channel pack
// of 4 pixels × 4 channels at a time (PACK4).
TEXT ·mulPanel4Int8(SB), NOSPLIT, $0-105
	MOVQ         aQuad+32(FP), R11
	MOVQ         aPix+40(FP), R8
	MOVQ         taps+48(FP), R14
	MOVQ         ntaps+56(FP), R12
	MOVQ         kq+64(FP), DX
	MOVBQZX      unsigned+104(FP), DI
	LEAQ         (R8)(R8*2), R9
	VPBROADCASTD signBytes<>(SB), Z14
	VPXORQ       Z15, Z15, Z15
	ZERO4(Z0, Z1, Z2, Z3)
	VNNIWALK(VQUAD4, ROWS4, NEXT4, a+24(FP), panel+72(FP))
	UNBIAS(Z0)
	UNBIAS(Z1)
	UNBIAS(Z2)
	UNBIAS(Z3)
	MOVQ  dst+0(FP), DI
	MOVQ  dstStride+8(FP), DX
	SHLQ  $2, DX
	MOVQ  scale+80(FP), R14
	TESTQ R14, R14
	JZ    raw
	MOVQ  packs+16(FP), R12
	MOVQ  bias+88(FP), R13
	VMOVUPS      (R14), Z12
	REQUANT(Z0)
	REQUANT(Z1)
	REQUANT(Z2)
	REQUANT(Z3)
	VMOVUPS      (R13), Z12
	VBROADCASTSS lo+96(FP), Z13
	VBROADCASTSS hi+100(FP), Z14
	FINISH12(Z0, Z12, Z13, Z14)
	FINISH12(Z1, Z12, Z13, Z14)
	FINISH12(Z2, Z12, Z13, Z14)
	FINISH12(Z3, Z12, Z13, Z14)
	PACK4($0x00, Z0, Z1, Z2, Z3, Z16, Z17, 0)
	DECQ R12
	JZ   done
	ADDQ DX, DI
	PACK4($0x55, Z0, Z1, Z2, Z3, Z16, Z17, 0)
	DECQ R12
	JZ   done
	ADDQ DX, DI
	PACK4($0xAA, Z0, Z1, Z2, Z3, Z16, Z17, 0)
	DECQ R12
	JZ   done
	ADDQ DX, DI
	PACK4($0xFF, Z0, Z1, Z2, Z3, Z16, Z17, 0)
	JMP  done

raw:
	VMOVDQU32 Z0, (DI)
	ADDQ      DX, DI
	VMOVDQU32 Z1, (DI)
	ADDQ      DX, DI
	VMOVDQU32 Z2, (DI)
	ADDQ      DX, DI
	VMOVDQU32 Z3, (DI)

done:
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

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
