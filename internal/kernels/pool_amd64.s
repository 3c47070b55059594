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
