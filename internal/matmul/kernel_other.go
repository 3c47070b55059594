//go:build !amd64

package matmul

import "unsafe"

// Only amd64 has assembly micro-kernels; everywhere else PackedB and
// PackedBInt8 run the portable loops.
const haveSIMD, haveInt8 = levelPortable, levelPortable

func mulPanel4x16(dst *float32, ldd int, a *float32, lda, k int, panel, bias *float32, lo, hi float32) {
	panic("matmul: no SIMD micro-kernel on this architecture")
}

func mulPanelNC4(dst *float32, dstPack, packs int, a *float32, aPack, aPix int, taps *Tap, ntaps, kc int, panel, bias *float32, lo, hi float32) {
	panic("matmul: no SIMD micro-kernel on this architecture")
}

func mulPanel4x32(dst *float32, ldd int, a *float32, lda, k int, panel, bias *float32, lo, hi float32, cols int) {
	panic("matmul: no SIMD micro-kernel on this architecture")
}

func mulPanel12NC4(dst *float32, dstPack, packs int, a *float32, aPack, aPix int, taps *Tap, ntaps, kc int, panel, bias *float32, lo, hi float32) {
	panic("matmul: no SIMD micro-kernel on this architecture")
}

func mulPanel12x32(dst *float32, ldd int, a *float32, lda, k int, panel, bias *float32, lo, hi float32, cols int) {
	panic("matmul: no SIMD micro-kernel on this architecture")
}

func mulPanel12x32NC4(dst *float32, dstPack, packs int, a *float32, aPack, aPix int, taps *Tap, ntaps, kc int, panel *float32, k int, bias *float32, lo, hi float32) {
	panic("matmul: no SIMD micro-kernel on this architecture")
}

func mulPanelInt8(dst unsafe.Pointer, dstStride, packs int, a *uint8, aQuad, aPix int, taps *Tap, ntaps, kq int, panel *int16, scale, bias *float32, lo, hi float32, unsigned bool) {
	panic("matmul: no SIMD micro-kernel on this architecture")
}

func mulPanel12Int8(dst unsafe.Pointer, dstStride, packs int, a *uint8, aQuad, aPix int, taps *Tap, ntaps, kq int, panel *int8, scale, bias *float32, lo, hi float32, unsigned bool) {
	panic("matmul: no SIMD micro-kernel on this architecture")
}

func mulPanel4Int8(dst unsafe.Pointer, dstStride, packs int, a *uint8, aQuad, aPix int, taps *Tap, ntaps, kq int, panel *int8, scale, bias *float32, lo, hi float32, unsigned bool) {
	panic("matmul: no SIMD micro-kernel on this architecture")
}

func mulAMXInt8(dst unsafe.Pointer, dstStride, packs int, a *uint8, aPix, rowBytes, kh, chunks int, panel *int8, pairBytes, g0, blocks, pixels, width, ow int, scale, bias *float32, lo, hi float32, unsigned bool, tmp *int32) {
	panic("matmul: no SIMD micro-kernel on this architecture")
}
