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

// TestAttentionRowsSIMDStayInTheirRows runs attentionRows8 with q, k, v,
// the output and the workspace each ending at an unmapped page, for the
// last head of two (rows 2·dh apart, the head at dh) and for a lone head
// (rows dh apart): the gathers of a last group's spare lanes, the key and
// value rows and the masked last output columns must stay inside.
func TestAttentionRowsSIMDStayInTheirRows(t *testing.T) {
	simdOnly(t, func(t *testing.T) {
		const maxL = 17
		tail := func(buf []float32, n int) []float32 { return buf[len(buf)-n:] }
		for dh := 1; dh <= 16; dh++ {
			for _, heads := range []int{1, 2} {
				ld := heads * dh
				off := ld - dh // the last head's first column
				qBuf, outBuf := guardedFloats(t, maxL*ld), guardedFloats(t, maxL*ld)
				kBuf, vBuf := guardedFloats(t, maxL*ld), guardedFloats(t, maxL*ld)
				wsBuf := guardedFloats(t, AttentionWorkspaceFloats(maxL, dh, 1))
				copy(qBuf, hardRows(uint64(dh), maxL, ld))
				copy(kBuf, hardRows(uint64(dh+100), maxL, ld))
				copy(vBuf, hardRows(uint64(dh+200), maxL, ld))
				for _, la := range []int{1, 3, 4, 7, 8, 9, 12, 17} {
					for _, lb := range []int{1, 3, 4, 5, 8, 9, 17} {
						q, out := tail(qBuf, la*ld), tail(outBuf, la*ld)
						k, v := tail(kBuf, lb*ld), tail(vBuf, lb*ld)
						ws := tail(wsBuf, AttentionWorkspaceFloats(lb, dh, 1))
						attentionRows8(&out[off], &q[off], &k[off], &v[off], &ws[0], la, lb, dh, ld, 0.5, 2)
					}
				}
			}
		}
	})
}
