//go:build !amd64

package kernels

// Only amd64 has an assembly depthwise kernel; matmul.HaveAVX2 is false
// everywhere else, so this is never reached.
func depthwise3x3(dst, src *float32, rows, pairs, dstRow, srcRow, srcStep, stride int, w, bias *float32, lo, hi float32) {
	panic("kernels: no SIMD depthwise kernel on this architecture")
}
