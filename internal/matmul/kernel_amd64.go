package matmul

import "unsafe"

// haveSIMD reports whether the AVX2 kernels may run: the CPU has AVX2 and the
// OS saves the ymm state (CPUID.1:ECX OSXSAVE+AVX, XCR0 bits 1–2,
// CPUID.7:EBX AVX2). Decided once at package init from the hardware alone.
var haveSIMD = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// mulPanel4x16 is the AVX2 4×16 micro-kernel (kernel_amd64.s): four rows of
// a, lda floats apart, times one k×16 packed panel, stored to four rows of
// dst, ldd floats apart.
//
//go:noescape
func mulPanel4x16(dst *float32, ldd int, a *float32, lda, k int, panel *float32)

// mulPanelNC4 is the same micro-kernel over NC4HW4 operands, as a
// convolution (kernel_amd64.s): four pixels of a, aPix floats apart, summed
// over ntaps taps of kc channels each, the channels four to a pack, aPack
// floats apart; the 4×16 tile gets bias added, is clamped to [lo, hi] and is
// stored as `packs` ≤ 4 channel packs of 4 pixels × 4 channels, dstPack
// floats apart. bias must hold 16 floats.
//
//go:noescape
func mulPanelNC4(dst *float32, dstPack, packs int, a *float32, aPack, aPix int, taps *Tap, ntaps, kc int, panel, bias *float32, lo, hi float32)

// mulPanelInt8 is the int8 micro-kernel (kernel_amd64.s): four pixels of
// bytes, aPix apart, summed over ntaps taps of kq ≥ 1 channel quads each, the
// quads aQuad bytes apart, against the tap's quads of one packed panel, into
// a 4×16 int32 tile. With scale nil the tile is stored as four rows of 16
// int32, dstStride int32s apart; otherwise each column is converted to
// float32, multiplied by its scale, gets its bias added, is clamped to
// [lo, hi] and the tile is stored as `packs` ≤ 4 channel packs of 4 pixels ×
// 4 channels, dstStride floats apart — mulPanelNC4's epilogue. scale and
// bias hold 16 floats.
//
//go:noescape
func mulPanelInt8(dst unsafe.Pointer, dstStride, packs int, a *uint8, aQuad, aPix int, taps *Tap, ntaps, kq int, panel *int16, scale, bias *float32, lo, hi float32, unsigned bool)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
