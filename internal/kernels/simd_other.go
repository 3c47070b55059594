//go:build !amd64

package kernels

import "mnn/internal/matmul"

// Only amd64 has assembly kernels; matmul.HaveAVX2 is false everywhere else,
// so these are never reached.
func depthwise3x3(dst, src *float32, rows, pairs, dstRow, srcRow, srcStep, stride int, w, bias *float32, lo, hi float32) {
	panic("kernels: no SIMD depthwise kernel on this architecture")
}

func depthwiseRuns(dst, src *float32, runs *dwRun, nruns int, taps *matmul.Tap, srcStep int, w, bias *float32, lo, hi float32) {
	panic("kernels: no SIMD depthwise kernel on this architecture")
}

func linCombNC4(dst *float32, dstRow, dstChunk, dstSplit int, src *float32, srcRow, srcChunk, srcSplit, chunks, rows int, cnt, idx *int, coef *float32, lanes int, bias *float32, lo, hi float32) {
	panic("kernels: no SIMD linear-combination kernel on this architecture")
}

func quantizeNC4(dst *uint8, src *float32, blocks int, inv float32, sign uint32, lo, hi *float32) {
	panic("kernels: no SIMD quantizer on this architecture")
}

func maxAbs8(src *float32, blocks int, mask *[8]uint32) float32 {
	panic("kernels: no SIMD max-abs scan on this architecture")
}

func poolMaxRowNC4(dst, src *float32, n, rows, cols, rowBytes, stepBytes int) {
	panic("kernels: no SIMD pooling kernel on this architecture")
}

func poolAvgRowNC4(dst, src *float32, n, rows, cols, rowBytes, stepBytes int, div float64) {
	panic("kernels: no SIMD pooling kernel on this architecture")
}

func expPS(dst, src *float32, blocks int) {
	panic("kernels: no SIMD exp kernel on this architecture")
}

func geluPS(dst, src *float32, blocks int) {
	panic("kernels: no SIMD GELU kernel on this architecture")
}

func dotCols8(dst, a, b *float32, k, ldb, blocks int, scale float32) {
	panic("kernels: no SIMD attention kernel on this architecture")
}
