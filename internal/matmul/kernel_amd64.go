package matmul

// The amd64 micro-kernels (kernel_amd64.s) and the one decision which of them
// run. fp32 has two SIMD levels over the same packed panels — AVX2 with FMA
// (4×16 tiles) and AVX-512F (row-major: 12×32 and 4×32 tiles over two
// adjacent panels, masked at the last columns; NC4HW4: 12×32 tiles, 12×16
// for a panel left unpaired, pixel remainders on AVX2) — that round every
// element alike, one VFMADD231PS per step as the portable loops' fma32, so
// the level is picked from CPUID and XCR0 alone and nothing can or need
// switch it. The pair tile loads two panel lines and twelve broadcasts per
// step for 24 FMAs, where the 12×16 tile loads 13 for 12. int8 has its own
// ladder over exact integer sums — AVX2 (VPMADDWD, 4×16 tiles), AVX-512 VNNI
// (VPDPBUSD, 12×16 tiles, remainders on a 4-pixel variant) and AMX (TDPBUSD
// and TDPBSSD, 32×32 tile blocks over the VNNI layout, everything it does
// not take on the VNNI kernels) — picked from the same registers, CPUID.7:ECX
// and EDX, and the operating system's grant of the AMX tile state.

import "unsafe"

// haveSIMD and haveInt8 are the fp32 and int8 kernel levels of this host,
// decided once at package init from the hardware alone — and, for amx, the
// OS's grant of the tile state (requestAMX, asked only where the hardware
// and XCR0 have AMX).
var haveSIMD, haveInt8 = probeLevel()

func probeLevel() (f32, i8 level) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var xcr0, ebx7, ecx7, edx7 uint32
	if ecx1&osxsave != 0 { // XGETBV faults without it
		xcr0 = xgetbv0()
	}
	if maxLeaf >= 7 {
		_, ebx7, ecx7, edx7 = cpuid(7, 0)
	}
	granted := edx7&amxInt8 == amxInt8 && xcr0&amxState == amxState && requestAMX()
	return detectLevel(maxLeaf, ecx1, xcr0, ebx7, ecx7, edx7, granted)
}

const (
	osxsave  = 1 << 27       // CPUID.1:ECX: the OS uses XSAVE, so XCR0 can be read
	amxInt8  = 1<<24 | 1<<25 // CPUID.7:EDX: AMX-TILE and AMX-INT8
	amxState = 1<<17 | 1<<18 // XCR0: XTILECFG and XTILEDATA
)

// detectLevel is the dispatch decision as a function of the six register
// values it rests on and one answer of the OS: the highest CPUID leaf,
// CPUID.1:ECX (FMA, OSXSAVE, AVX), XCR0 (the register state the OS saves:
// bits 1–2 xmm and ymm, 5–7 opmask and zmm, 17–18 the AMX tile
// configuration and data), CPUID.7:EBX (AVX2, AVX512F), CPUID.7:ECX
// (AVX512_VNNI), CPUID.7:EDX (AMX-TILE, AMX-INT8), and whether the process
// was granted the tile data state. A level needs the instructions and the
// saved state; AVX-512 also needs the AVX2 level, whose kernels take its
// remainders, and AMX the VNNI level, whose kernels take everything the
// tiles do not. The int8 level is the fp32 one, except that AVX-512 without
// VNNI runs the AVX2 int8 kernel and AMX runs above VNNI.
func detectLevel(maxLeaf, ecx1, xcr0, ebx7, ecx7, edx7 uint32, amxGranted bool) (f32, i8 level) {
	const fma, avx, ymmState, zmmState, avx2, avx512f, avx512vnni = 1 << 12, 1 << 28, 0x06, 0xe6, 1 << 5, 1 << 16, 1 << 11
	switch {
	case maxLeaf < 7 || ecx1&(fma|osxsave|avx) != fma|osxsave|avx || xcr0&ymmState != ymmState || ebx7&avx2 == 0:
		return levelPortable, levelPortable
	case xcr0&zmmState != zmmState || ebx7&avx512f == 0:
		return levelAVX2, levelAVX2
	case ecx7&avx512vnni == 0:
		return levelAVX512, levelAVX2
	case edx7&amxInt8 != amxInt8 || xcr0&amxState != amxState || !amxGranted:
		return levelAVX512, levelVNNI
	}
	return levelAVX512, levelAMX
}

// mulPanel4x16 is the AVX2 4×16 micro-kernel (kernel_amd64.s): four rows of
// a, lda floats apart, times one k×16 packed panel, stored to four rows of
// dst, ldd floats apart. With bias non-nil (16 floats) each column gets its
// bias added and is clamped to [lo, hi] first — mulPanelNC4's epilogue.
//
//go:noescape
func mulPanel4x16(dst *float32, ldd int, a *float32, lda, k int, panel, bias *float32, lo, hi float32)

// mulPanelNC4 is the same micro-kernel over NC4HW4 operands, as a
// convolution (kernel_amd64.s): four pixels of a, aPix floats apart, summed
// over ntaps taps of kc channels each, the channels four to a pack, aPack
// floats apart; the 4×16 tile gets bias added, is clamped to [lo, hi] and is
// stored as `packs` ≤ 4 channel packs of 4 pixels × 4 channels, dstPack
// floats apart. bias must hold 16 floats.
//
//go:noescape
func mulPanelNC4(dst *float32, dstPack, packs int, a *float32, aPack, aPix int, taps *Tap, ntaps, kc int, panel, bias *float32, lo, hi float32)

// mulPanel12NC4 is mulPanelNC4 on AVX-512F (kernel_amd64.s): twelve pixels
// per tile, one zmm per pixel, the reduction and the epilogue of the
// four-pixel kernel element for element.
//
//go:noescape
func mulPanel12NC4(dst *float32, dstPack, packs int, a *float32, aPack, aPix int, taps *Tap, ntaps, kc int, panel, bias *float32, lo, hi float32)

// mulPanel12x32 and mulPanel4x32 are the row-major AVX-512F kernels over two
// adjacent panels (kernel_amd64.s): twelve or four rows of a, lda floats
// apart, × 32 columns — the second panel's k rows start k·16 floats after
// panel and are read only when cols > 16 — with mulPanel4x16's reduction
// and, for bias non-nil (32 floats, read under the column mask), its
// epilogue; the first cols ≤ 32 columns of each row are stored, rows ldd
// floats apart. lda = ldd = 0 runs one row as four copies of itself.
//
//go:noescape
func mulPanel12x32(dst *float32, ldd int, a *float32, lda, k int, panel, bias *float32, lo, hi float32, cols int)

//go:noescape
func mulPanel4x32(dst *float32, ldd int, a *float32, lda, k int, panel, bias *float32, lo, hi float32, cols int)

// mulPanel12x32NC4 is mulPanel12NC4 over two adjacent panels
// (kernel_amd64.s): the second panel's k rows start k·16 floats after
// panel, the tile is twelve pixels × 32 columns, and each element gets the
// twelve-pixel kernel's reduction and epilogue, from 32 biases. It stores
// 4 < packs ≤ 8 channel packs.
//
//go:noescape
func mulPanel12x32NC4(dst *float32, dstPack, packs int, a *float32, aPack, aPix int, taps *Tap, ntaps, kc int, panel *float32, k int, bias *float32, lo, hi float32)

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

// mulAMXInt8 is the amx micro-kernel (kernel_amd64.s): blocks of 32 grid
// pixels × the 32 columns of a panel pair on the AMX tiles, the sums of the
// VNNI kernels, stored raw (scale nil) or through their epilogue into
// NC4HW4 packs, four adjacent output pixels at a time where it can (amx.go).
// tmp holds two blocks of 32 × 32 int32.
//
//go:noescape
func mulAMXInt8(dst unsafe.Pointer, dstStride, packs int, a *uint8, aPix, rowBytes, kh, chunks int, panel *int8, pairBytes, g0, blocks, pixels, width, ow int, scale, bias *float32, lo, hi float32, unsigned bool, tmp *int32)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
