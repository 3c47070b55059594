#include "textflag.h"

// func mulPanel4x16(dst *float32, ldd int, a *float32, lda, k int, panel *float32)
//
// dst[r*ldd+l] = Σ_p a[r*lda+p] · panel[p*16+l] for r < 4, l < 16, summed
// in ascending p from +0. Y0..Y7 hold the 4×16 accumulators (two ymm per
// row); each step broadcasts one a element per row against the two halves
// of the 64-byte panel line. VMULPS then VADDPS — never FMA — so every
// element sees exactly the roundings of the scalar loop `acc += av * v`.
// Requires k ≥ 1.
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
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ AX, AX

loop:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	VBROADCASTSS (SI)(AX*4), Y10
	VBROADCASTSS (R8)(AX*4), Y11
	VMULPS Y8, Y10, Y12
	VMULPS Y9, Y10, Y13
	VMULPS Y8, Y11, Y14
	VMULPS Y9, Y11, Y15
	VADDPS Y12, Y0, Y0
	VADDPS Y13, Y1, Y1
	VADDPS Y14, Y2, Y2
	VADDPS Y15, Y3, Y3
	VBROADCASTSS (R9)(AX*4), Y10
	VBROADCASTSS (R10)(AX*4), Y11
	VMULPS Y8, Y10, Y12
	VMULPS Y9, Y10, Y13
	VMULPS Y8, Y11, Y14
	VMULPS Y9, Y11, Y15
	VADDPS Y12, Y4, Y4
	VADDPS Y13, Y5, Y5
	VADDPS Y14, Y6, Y6
	VADDPS Y15, Y7, Y7
	ADDQ $64, BX
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
