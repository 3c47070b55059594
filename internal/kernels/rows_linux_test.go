//go:build linux

package kernels

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns n floats that end where a page the process may not
// touch begins, so a kernel that reads or writes past them faults.
func guardedFloats(t *testing.T, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n*4+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[size-page-n*4])), n)
}

// TestRowKernelsSIMDStayInTheirRows runs softmaxRows8 and layerNormRows8
// with the rows, γ, β and the output each ending at an unmapped page: the
// spare lanes of a last group of fewer than eight rows must gather from its
// real rows, and the passes along rows stop at its last.
func TestRowKernelsSIMDStayInTheirRows(t *testing.T) {
	simdOnly(t, func(t *testing.T) {
		for _, d1 := range rowShapes {
			gamma, beta := guardedFloats(t, d1), guardedFloats(t, d1)
			gb := hardRows(uint64(d1), 2, d1)
			copy(gamma, gb[:d1])
			copy(beta, gb[d1:])
			for rows := 1; rows <= 17; rows++ {
				src, dst := guardedFloats(t, rows*d1), guardedFloats(t, rows*d1)
				copy(src, hardRows(uint64(100*d1+rows), rows, d1))
				softmaxRows8(&dst[0], &src[0], d1, rows)
				layerNormRows8(&dst[0], &src[0], d1, rows, &gamma[0], &beta[0], 1e-5)
			}
		}
	})
}
