//go:build !amd64

package matmul

// Only amd64 has an assembly micro-kernel; everywhere else PackedB.MulInto
// runs the portable loop.
const haveSIMD = false

func mulPanel4x16(dst *float32, ldd int, a *float32, lda, k int, panel *float32) {
	panic("matmul: no SIMD micro-kernel on this architecture")
}
