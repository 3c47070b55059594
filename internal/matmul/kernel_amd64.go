package matmul

// The amd64 micro-kernels (kernel_amd64.s) and the one decision which of them
// run. fp32 has two SIMD levels over the same packed panels — AVX2 with FMA
// (4×16 tiles) and AVX-512F (12×16 tiles, remainders on AVX2) — that round
// every element alike, one VFMADD231PS per step as the portable loops' fma32,
// so the level is picked from CPUID and XCR0 alone and nothing can or need
// switch it. int8 has its own ladder over exact integer sums — AVX2
// (VPMADDWD, 4×16 tiles) and AVX-512 VNNI (VPDPBUSD, 12×16 tiles, remainders
// on a 4-pixel variant) — picked from the same registers and CPUID.7:ECX.

import "unsafe"

// haveSIMD and haveInt8 are the fp32 and int8 kernel levels of this host,
// decided once at package init from the hardware alone.
var haveSIMD, haveInt8 = probeLevel()

func probeLevel() (f32, i8 level) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var xcr0, ebx7, ecx7 uint32
	if ecx1&osxsave != 0 { // XGETBV faults without it
		xcr0 = xgetbv0()
	}
	if maxLeaf >= 7 {
		_, ebx7, ecx7, _ = cpuid(7, 0)
	}
	return detectLevel(maxLeaf, ecx1, xcr0, ebx7, ecx7)
}

const osxsave = 1 << 27 // CPUID.1:ECX: the OS uses XSAVE, so XCR0 can be read

// detectLevel is the dispatch decision as a function of the five register
// values it rests on: the highest CPUID leaf, CPUID.1:ECX (FMA, OSXSAVE,
// AVX), XCR0 (the register state the OS saves: bits 1–2 xmm and ymm, 5–7
// opmask and zmm), CPUID.7:EBX (AVX2, AVX512F) and CPUID.7:ECX
// (AVX512_VNNI). A level needs the instructions and the saved state;
// AVX-512 also needs the AVX2 level, whose kernels take its remainders. The
// int8 level is the fp32 one, except that AVX-512 without VNNI runs the
// AVX2 int8 kernel.
func detectLevel(maxLeaf, ecx1, xcr0, ebx7, ecx7 uint32) (f32, i8 level) {
	const fma, avx, ymmState, zmmState, avx2, avx512f, avx512vnni = 1 << 12, 1 << 28, 0x06, 0xe6, 1 << 5, 1 << 16, 1 << 11
	switch {
	case maxLeaf < 7 || ecx1&(fma|osxsave|avx) != fma|osxsave|avx || xcr0&ymmState != ymmState || ebx7&avx2 == 0:
		return levelPortable, levelPortable
	case xcr0&zmmState != zmmState || ebx7&avx512f == 0:
		return levelAVX2, levelAVX2
	case ecx7&avx512vnni == 0:
		return levelAVX512, levelAVX2
	}
	return levelAVX512, levelVNNI
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

// mulPanel12x16 and mulPanel12NC4 are the same two kernels on AVX-512F
// (kernel_amd64.s): twelve rows or pixels per tile, one zmm per row, the
// reduction and the epilogue of the four-row kernels element for element.
//
//go:noescape
func mulPanel12x16(dst *float32, ldd int, a *float32, lda, k int, panel *float32)

//go:noescape
func mulPanel12NC4(dst *float32, dstPack, packs int, a *float32, aPack, aPix int, taps *Tap, ntaps, kc int, panel, bias *float32, lo, hi float32)

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

// mulPanel12Int8 and mulPanel4Int8 are the int8 micro-kernel on AVX-512
// VNNI (kernel_amd64.s): mulPanelInt8's walk, arguments and epilogue for a
// tile of twelve or four pixels, over a panel in the VNNI layout — a
// column's four rows of a quad in one dword, 64 bytes a quad (quadIndex).
// mulPanel12Int8 stores `packs` channel packs of 12 pixels × 4 channels.
//
//go:noescape
func mulPanel12Int8(dst unsafe.Pointer, dstStride, packs int, a *uint8, aQuad, aPix int, taps *Tap, ntaps, kq int, panel *int8, scale, bias *float32, lo, hi float32, unsigned bool)

//go:noescape
func mulPanel4Int8(dst unsafe.Pointer, dstStride, packs int, a *uint8, aQuad, aPix int, taps *Tap, ntaps, kq int, panel *int8, scale, bias *float32, lo, hi float32, unsigned bool)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
