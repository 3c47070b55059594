package kernels

import "unsafe"

// The memory planner (Figure 3) deals in float32 elements: activations,
// workspaces and staging buffers all share one arena of []float32. The
// quantized kernels need byte images and int32 accumulators, so they carve
// their planner slices and reinterpret the backing bytes — the arena is
// 4-byte aligned and a workspace buffer is always fully written before it is
// read, so the type pun never observes stale float bits.

// bytesFloats returns the float32 count that holds n bytes of scratch.
func bytesFloats(n int) int { return (n + 3) / 4 }

// carveBytes reinterprets the first bytesFloats(n) floats of buf as a
// []uint8 of length n, returning the view and the remaining buffer. A short
// buf falls back to a private allocation (backends used outside a session's
// pre-inference walk).
func carveBytes(buf []float32, n int) ([]uint8, []float32) {
	f := bytesFloats(n)
	if n == 0 {
		return nil, buf
	}
	if len(buf) < f {
		return make([]uint8, n), buf
	}
	head := buf[:f]
	return unsafe.Slice((*uint8)(unsafe.Pointer(unsafe.SliceData(head))), n), buf[f:]
}

// carveInt32 reinterprets the first n floats of buf as an []int32 of length
// n, returning the view and the remaining buffer.
func carveInt32(buf []float32, n int) ([]int32, []float32) {
	if n == 0 {
		return nil, buf
	}
	if len(buf) < n {
		return make([]int32, n), buf
	}
	head := buf[:n]
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(head))), n), buf[n:]
}
