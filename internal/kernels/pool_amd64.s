#include "textflag.h"

DATA poolNegInf<>+0(SB)/4, $0xff800000
GLOBL poolNegInf<>(SB), RODATA|NOPTR, $4

// func poolMaxNC4(dst, src *float32, rows, cols, rowBytes int)
//
// dst[0:4] = poolMax of the rows × cols window of one channel pack that
// starts at src, rows rowBytes apart; rows, cols ≥ 1. The running maximum X0
// is VMAXPS's second source, the one it returns unless the first is greater:
// v > m ? v : m, so the first of equal values and of the two zeros stays and
// a NaN is never picked.
TEXT ·poolMaxNC4(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), R9
	MOVQ rowBytes+32(FP), R10
	VBROADCASTSS poolNegInf<>(SB), X0

row:
	MOVQ SI, AX
	MOVQ R9, CX

tap:
	VMOVUPS (AX), X1
	VMAXPS  X0, X1, X0
	ADDQ    $16, AX
	DECQ    CX
	JNZ     tap
	ADDQ    R10, SI
	DECQ    R8
	JNZ     row
	VMOVUPS X0, (DI)
	RET
