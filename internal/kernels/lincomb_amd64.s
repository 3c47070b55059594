#include "textflag.h"

// The 128-bit store mask for n < 4 real lanes is the four dwords at
// laneMask + 4·(4 − n).
DATA laneMask<>+0(SB)/8, $0xffffffffffffffff
DATA laneMask<>+8(SB)/8, $0xffffffffffffffff
DATA laneMask<>+16(SB)/8, $0
DATA laneMask<>+24(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $32

// A chunk is eight floats as two four-float halves — the four channels of
// one NC4HW4 pixel in each of two adjacent channel packs — R12 (source) or DI
// (destination) bytes apart. LOADSPLIT gathers one from its halves; where the
// halves are adjacent (16 bytes) the chunk is an ordinary 32-byte operand of
// VMULPS, and the term4/term1 loops beside split4/split1 are that case: half
// of all transform loads, worth 5–11 % of BenchmarkConvWinograd3x3 on every
// shape (minimum of four alternating runs against split loads alone). Stores
// have no such twin: unmasked 32-byte stores measured 0–2 %, within noise.
#define LOADSPLIT(X, Y) \
	VMOVUPS     (SI), X             \
	VINSERTF128 $1, (SI)(R12*1), Y, Y

// POST adds the bias (Y12) and clamps to [Y13, Y14] when a bias was given.
// The sum is the SECOND source of VMAXPS/VMINPS, which return the second
// source when an operand is NaN or both are zero: NaN stays NaN and -0 stays
// -0, as in the scalar relu/relu6.
#define POST(Y) \
	VADDPS Y12, Y, Y \
	VMAXPS Y, Y13, Y \
	VMINPS Y, Y14, Y

// STOREMASKED stores the low half of Y under mask X15 at ADDR and the high
// half under mask X11 DI bytes further.
#define STOREMASKED(X, Y, ADDR, ADDRHI) \
	VMASKMOVPS   X, X15, ADDR \
	VEXTRACTF128 $1, Y, X9    \
	VMASKMOVPS   X9, X11, ADDRHI

// func linCombNC4(dst *float32, dstRow, dstChunk, dstSplit int, src *float32, srcRow, srcChunk, srcSplit, chunks, rows int, cnt, idx *int, coef *float32, lanes int, bias *float32, lo, hi float32)
//
// Linear combinations of rows of chunks. Output row r < rows, chunk
// q < chunks, lane l of half h is
//
//	dst[r·dstRow + q·dstChunk + h·dstSplit + l] = Σ_t coef[t] · src[idx[t]·srcRow + q·srcChunk + h·srcSplit + l]
//
// over the cnt[r] terms of row r (the terms of all rows lie one after the
// other in idx and coef), summed in term order from +0 with VMULPS then
// VADDPS — never FMA — so every lane sees the roundings of the scalar
// `acc += float32(c * s)`. With bias ≠ nil each sum then gets bias[4h+l]
// added and is clamped to [lo, hi]. All eight lanes are computed; only the
// first `lanes` (of 4h+l) are stored. Chunks go four at a time, then one at
// a time. Requires rows ≥ 1 and chunks ≥ 1.
TEXT ·linCombNC4(SB), NOSPLIT, $0-128
	MOVQ dstChunk+16(FP), R10
	MOVQ dstSplit+24(FP), DI
	MOVQ srcRow+40(FP), R8
	MOVQ srcChunk+48(FP), R9
	MOVQ srcSplit+56(FP), R12
	MOVQ idx+88(FP), R13
	MOVQ coef+96(FP), R14
	SHLQ $2, R10
	SHLQ $2, DI
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R12

	// X15 masks the low half's first min(lanes, 4) lanes, X11 the high
	// half's first max(lanes − 4, 0).
	LEAQ    laneMask<>(SB), BX
	MOVQ    lanes+104(FP), AX
	MOVQ    $4, CX
	CMPQ    AX, CX
	CMOVQGT CX, AX
	SUBQ    AX, CX
	VMOVUPS (BX)(CX*4), X15
	MOVQ    $8, CX
	SUBQ    lanes+104(FP), CX
	MOVQ    $4, AX
	CMPQ    CX, AX
	CMOVQGT AX, CX
	VMOVUPS (BX)(CX*4), X11

	MOVQ  bias+112(FP), AX
	TESTQ AX, AX
	JZ    rowloop
	VMOVUPS      (AX), Y12
	VBROADCASTSS lo+120(FP), Y13
	VBROADCASTSS hi+124(FP), Y14

rowloop:
	MOVQ cnt+80(FP), AX
	MOVQ (AX), CX
	MOVQ src+32(FP), BX
	MOVQ dst+0(FP), DX
	MOVQ chunks+64(FP), R11
	CMPQ R11, $4
	JLT  singles

block4:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   AX, AX
	TESTQ  CX, CX
	JZ     post4
	CMPQ   R12, $16
	JNE    split4

term4:
	MOVQ         (R13)(AX*8), SI
	IMULQ        R8, SI
	ADDQ         BX, SI
	VBROADCASTSS (R14)(AX*4), Y4
	VMULPS       (SI), Y4, Y5
	VMULPS       (SI)(R9*1), Y4, Y6
	LEAQ         (SI)(R9*2), SI
	VMULPS       (SI), Y4, Y7
	VMULPS       (SI)(R9*1), Y4, Y8
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3
	INCQ         AX
	CMPQ         AX, CX
	JLT          term4
	JMP          post4

split4:
	MOVQ         (R13)(AX*8), SI
	IMULQ        R8, SI
	ADDQ         BX, SI
	VBROADCASTSS (R14)(AX*4), Y4
	LOADSPLIT(X5, Y5)
	ADDQ         R9, SI
	LOADSPLIT(X6, Y6)
	ADDQ         R9, SI
	LOADSPLIT(X7, Y7)
	ADDQ         R9, SI
	LOADSPLIT(X8, Y8)
	VMULPS       Y5, Y4, Y5
	VMULPS       Y6, Y4, Y6
	VMULPS       Y7, Y4, Y7
	VMULPS       Y8, Y4, Y8
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3
	INCQ         AX
	CMPQ         AX, CX
	JLT          split4

post4:
	CMPQ bias+112(FP), $0
	JEQ  store4
	POST(Y0)
	POST(Y1)
	POST(Y2)
	POST(Y3)

store4:
	LEAQ (DX)(R10*2), SI
	STOREMASKED(X0, Y0, (DX), (DX)(DI*1))
	ADDQ R10, DX
	STOREMASKED(X1, Y1, (DX), (DX)(DI*1))
	STOREMASKED(X2, Y2, (SI), (SI)(DI*1))
	ADDQ R10, SI
	STOREMASKED(X3, Y3, (SI), (SI)(DI*1))
	SUBQ R10, DX

next4:
	LEAQ (BX)(R9*4), BX
	LEAQ (DX)(R10*4), DX
	SUBQ $4, R11
	CMPQ R11, $4
	JGE  block4

singles:
	TESTQ R11, R11
	JZ    rowdone

single:
	VXORPS Y0, Y0, Y0
	XORQ   AX, AX
	TESTQ  CX, CX
	JZ     post1
	CMPQ   R12, $16
	JNE    split1

term1:
	MOVQ         (R13)(AX*8), SI
	IMULQ        R8, SI
	VBROADCASTSS (R14)(AX*4), Y4
	VMULPS       (SI)(BX*1), Y4, Y5
	VADDPS       Y5, Y0, Y0
	INCQ         AX
	CMPQ         AX, CX
	JLT          term1
	JMP          post1

split1:
	MOVQ         (R13)(AX*8), SI
	IMULQ        R8, SI
	ADDQ         BX, SI
	VBROADCASTSS (R14)(AX*4), Y4
	LOADSPLIT(X5, Y5)
	VMULPS       Y5, Y4, Y5
	VADDPS       Y5, Y0, Y0
	INCQ         AX
	CMPQ         AX, CX
	JLT          split1

post1:
	CMPQ bias+112(FP), $0
	JEQ  store1
	POST(Y0)

store1:
	STOREMASKED(X0, Y0, (DX), (DX)(DI*1))

next1:
	ADDQ R9, BX
	ADDQ R10, DX
	DECQ R11
	JNZ  single

rowdone:
	DECQ rows+72(FP)
	JZ   done
	LEAQ (R13)(CX*8), R13
	LEAQ (R14)(CX*4), R14
	ADDQ $8, cnt+80(FP)
	MOVQ dstRow+8(FP), AX
	SHLQ $2, AX
	ADDQ AX, dst+0(FP)
	JMP  rowloop

done:
	VZEROUPPER
	RET
