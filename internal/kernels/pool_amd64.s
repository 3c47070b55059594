#include "textflag.h"

DATA poolNegInf<>+0(SB)/4, $0xff800000
GLOBL poolNegInf<>(SB), RODATA|NOPTR, $4

// WINDOW runs TAP over one window: R13 at each tap in (ky, kx) order, rows
// from SI, R8 rows of R9 taps, R10 bytes apart. ROW and COL name its loops.
#define WINDOW(TAP, ROW, COL) \
	MOVQ SI, AX  \
	MOVQ R8, DX  \
ROW:             \
	MOVQ AX, R13 \
	MOVQ R9, CX  \
COL:             \
	TAP          \
	ADDQ $16, R13 \
	DECQ CX      \
	JNZ  COL     \
	ADDQ R10, AX \
	DECQ DX      \
	JNZ  ROW

// POOLROW pools n output pixels of one channel pack, 16 bytes apart at dst;
// pixel j's window is the rows × cols taps that start at src + j·stepBytes,
// rows rowBytes apart; n, rows, cols ≥ 1. Four pixels are in flight, one
// accumulator each (INIT4, TAP4 with R11 = stepBytes and R12 = 3·stepBytes,
// STORE4), and every pixel visits its taps in (ky, kx) order, as its Go
// oracle does; the last one to three pixels go one at a time (INIT1, TAP1,
// STORE1). BX counts the pixels left.
#define POOLROW(INIT4, TAP4, STORE4, INIT1, TAP1, STORE1) \
	MOVQ dst+0(FP), DI        \
	MOVQ src+8(FP), SI        \
	MOVQ n+16(FP), BX         \
	MOVQ rows+24(FP), R8      \
	MOVQ cols+32(FP), R9      \
	MOVQ rowBytes+40(FP), R10 \
	MOVQ stepBytes+48(FP), R11 \
	LEAQ (R11)(R11*2), R12    \
	CMPQ BX, $4               \
	JLT  one                  \
quad:                         \
	INIT4                     \
	WINDOW(TAP4, quadRow, quadTap) \
	STORE4                    \
	ADDQ $64, DI              \
	LEAQ (SI)(R11*4), SI      \
	SUBQ $4, BX               \
	CMPQ BX, $4               \
	JGE  quad                 \
one:                          \
	TESTQ BX, BX              \
	JZ    done                \
	INIT1                     \
	WINDOW(TAP1, oneRow, oneTap) \
	STORE1                    \
	ADDQ $16, DI              \
	ADDQ R11, SI              \
	DECQ BX                   \
	JMP  one                  \
done:

// The running maximum is VMAXPS's second source, the one it returns unless
// the first is greater: v > m ? v : m, so the first of equal values and of
// the two zeros stays and a NaN is never picked. X15 holds -Inf.
#define MAXINIT4 \
	VMOVAPS X15, X0 \
	VMOVAPS X15, X1 \
	VMOVAPS X15, X2 \
	VMOVAPS X15, X3

#define MAXTAP4 \
	VMOVUPS (R13), X4         \
	VMOVUPS (R13)(R11*1), X5  \
	VMOVUPS (R13)(R11*2), X6  \
	VMOVUPS (R13)(R12*1), X7  \
	VMAXPS  X0, X4, X0        \
	VMAXPS  X1, X5, X1        \
	VMAXPS  X2, X6, X2        \
	VMAXPS  X3, X7, X3

#define MAXSTORE4 \
	VMOVUPS X0, (DI)   \
	VMOVUPS X1, 16(DI) \
	VMOVUPS X2, 32(DI) \
	VMOVUPS X3, 48(DI)

#define MAXINIT1 VMOVAPS X15, X0

#define MAXTAP1 \
	VMOVUPS (R13), X4 \
	VMAXPS  X0, X4, X0

#define MAXSTORE1 VMOVUPS X0, (DI)

// func poolMaxRowNC4(dst, src *float32, n, rows, cols, rowBytes, stepBytes int)
//
// POOLROW with each pixel poolMax of its window.
TEXT ·poolMaxRowNC4(SB), NOSPLIT, $0-56
	VBROADCASTSS poolNegInf<>(SB), X15
	POOLROW(MAXINIT4, MAXTAP4, MAXSTORE4, MAXINIT1, MAXTAP1, MAXSTORE1)
	RET

// A pixel's four lanes are widened to float64 and summed from +0 in tap
// order, then stored as float32(sum/div), div in Y15.
#define AVGINIT4 \
	VXORPD Y0, Y0, Y0 \
	VXORPD Y1, Y1, Y1 \
	VXORPD Y2, Y2, Y2 \
	VXORPD Y3, Y3, Y3

#define AVGTAP4 \
	VCVTPS2PD (R13), Y4        \
	VCVTPS2PD (R13)(R11*1), Y5 \
	VCVTPS2PD (R13)(R11*2), Y6 \
	VCVTPS2PD (R13)(R12*1), Y7 \
	VADDPD    Y4, Y0, Y0       \
	VADDPD    Y5, Y1, Y1       \
	VADDPD    Y6, Y2, Y2       \
	VADDPD    Y7, Y3, Y3

#define AVGOUT(Y, X, OFF) \
	VDIVPD     Y15, Y, Y \
	VCVTPD2PSY Y, X      \
	VMOVUPS    X, OFF(DI)

#define AVGSTORE4 \
	AVGOUT(Y0, X0, 0)  \
	AVGOUT(Y1, X1, 16) \
	AVGOUT(Y2, X2, 32) \
	AVGOUT(Y3, X3, 48)

#define AVGINIT1 VXORPD Y0, Y0, Y0

#define AVGTAP1 \
	VCVTPS2PD (R13), Y4 \
	VADDPD    Y4, Y0, Y0

#define AVGSTORE1 AVGOUT(Y0, X0, 0)

// func poolAvgRowNC4(dst, src *float32, n, rows, cols, rowBytes, stepBytes int, div float64)
//
// POOLROW with each pixel poolAvg of its window.
TEXT ·poolAvgRowNC4(SB), NOSPLIT, $0-64
	VBROADCASTSD div+56(FP), Y15
	POOLROW(AVGINIT4, AVGTAP4, AVGSTORE4, AVGINIT1, AVGTAP1, AVGSTORE1)
	VZEROUPPER
	RET

// poolMax3x3s2Tail<> holds, for the n = 1, 2, 3 output pixels of a last
// short strip, the lane masks of its two row loads (the 2n + 1 source
// pixels it reads) and of its store, 8 bytes per n.
DATA poolMax3x3s2Tail<>+0(SB)/2, $0x0fff
DATA poolMax3x3s2Tail<>+2(SB)/2, $0x0000
DATA poolMax3x3s2Tail<>+4(SB)/2, $0x000f
DATA poolMax3x3s2Tail<>+8(SB)/2, $0xffff
DATA poolMax3x3s2Tail<>+10(SB)/2, $0x000f
DATA poolMax3x3s2Tail<>+12(SB)/2, $0x00ff
DATA poolMax3x3s2Tail<>+16(SB)/2, $0xffff
DATA poolMax3x3s2Tail<>+18(SB)/2, $0x0fff
DATA poolMax3x3s2Tail<>+20(SB)/2, $0x0fff
GLOBL poolMax3x3s2Tail<>(SB), RODATA|NOPTR, $24

// ROWMAX3 sets DST, for the four output pixels of a strip, to the maximum
// of their three taps in one source row starting at R: the even source
// pixels (kx = 0), the odd ones (kx = 1) and the even ones one pixel on
// (kx = 2, VALIGND of the even pixels and pixel 8), folded in kx order from
// -Inf with the running maximum as VMAXPS's second source. LOADS fills
// Z4 (pixels 0-3), Z5 (4-7) and Z6 (pixel 8 in its low lane).
#define ROWMAX3(LOADS, R, DST) \
	LOADS(R)                       \
	VSHUFF32X4 $0x88, Z5, Z4, Z7   \
	VSHUFF32X4 $0xdd, Z5, Z4, Z8   \
	VALIGND    $4, Z7, Z6, Z9      \
	VMAXPS     Z15, Z7, DST        \
	VMAXPS     DST, Z8, DST        \
	VMAXPS     DST, Z9, DST

#define LOADFULL(R) \
	VMOVUPS (R), Z4     \
	VMOVUPS 64(R), Z5   \
	VMOVUPS 128(R), X6

// A short strip reads its 2n + 1 source pixels under K1 and K2; pixel 8,
// which only its absent fourth output pixel takes, is not read.
#define LOADTAIL(R) \
	VMOVUPS.Z (R), K1, Z4   \
	VMOVUPS.Z 64(R), K2, Z5 \
	VXORPS    X6, X6, X6

#define STOREFULL VMOVUPS Z3, (DX)
#define STORETAIL VMOVUPS Z3, K3, (DX)

// STRIP pools one strip of four output pixels down all oh output rows: the
// row maxima of source rows 2·oy, 2·oy + 1 and 2·oy + 2 (Z0, Z1, Z2, the
// last carried to the next output row as its first) folded in ky order from
// -Inf, as in ROWMAX3, and stored by STORE. SI is the strip's first source
// pixel, DI its first output pixel.
#define STRIP(LOADS, STORE, LOOP) \
	MOVQ SI, AX                   \
	MOVQ DI, DX                   \
	MOVQ oh+16(FP), CX            \
	ROWMAX3(LOADS, AX, Z0)        \
LOOP:                             \
	LEAQ (AX)(R10*1), R13         \
	ROWMAX3(LOADS, R13, Z1)       \
	ADDQ R12, AX                  \
	ROWMAX3(LOADS, AX, Z2)        \
	VMAXPS  Z15, Z0, Z3           \
	VMAXPS  Z3, Z1, Z3            \
	VMAXPS  Z3, Z2, Z3            \
	STORE                         \
	VMOVAPS Z2, Z0                \
	ADDQ    R11, DX               \
	DECQ    CX                    \
	JNZ     LOOP

// func poolMax3x3s2NC4(dst, src *float32, oh, ow, w int)
//
// poolMax of every 3×3 stride-2 window of one channel pack whose oh × ow
// windows lie inside its rows of w pixels (w ≥ 2·ow + 1, and 2·oh + 1 rows),
// the output rows ow pixels long at dst. Per strip of four output columns it
// is a row pass and then a column pass, each in tap order with the running
// maximum as VMAXPS's second source: the first of a window's maximal
// elements in its first row that holds one is its first in (ky, kx) order,
// so the bits are poolMax's. A last strip of one to three pixels runs
// masked.
TEXT ·poolMax3x3s2NC4(SB), NOSPLIT, $0-40
	VBROADCASTSS poolNegInf<>(SB), Z15
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ow+24(FP), BX
	MOVQ w+32(FP), R10
	SHLQ $4, R10              // source row bytes
	LEAQ (R10)(R10*1), R12    // two source rows
	MOVQ BX, R11
	SHLQ $4, R11              // output row bytes
	CMPQ BX, $4
	JLT  tail
strip:
	STRIP(LOADFULL, STOREFULL, fullRow)
	ADDQ $128, SI
	ADDQ $64, DI
	SUBQ $4, BX
	CMPQ BX, $4
	JGE  strip
tail:
	TESTQ BX, BX
	JZ    done
	LEAQ  poolMax3x3s2Tail<>(SB), R8
	KMOVW -8(R8)(BX*8), K1
	KMOVW -6(R8)(BX*8), K2
	KMOVW -4(R8)(BX*8), K3
	STRIP(LOADTAIL, STORETAIL, tailRow)
done:
	VZEROUPPER
	RET
