package matmul

import (
	"fmt"
	"testing"
)

func randInt8(seed uint32, n int, sparse bool) []int8 {
	out := make([]int8, n)
	s := seed
	for i := range out {
		s = s*1664525 + 1013904223
		v := int8(s >> 24)
		if v == -128 {
			v = -127
		}
		if sparse && s&3 == 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

func TestPackedBInt8MatchesRef(t *testing.T) {
	for _, tc := range []struct{ m, k, n int }{
		{1, 1, 1}, {1, 3, 5}, {4, 16, 16}, {5, 17, 33}, {7, 64, 20},
		{13, 100, 50}, {8, 15, 40},
	} {
		t.Run(fmt.Sprintf("%dx%dx%d", tc.m, tc.k, tc.n), func(t *testing.T) {
			a := randInt8(uint32(tc.m*tc.k), tc.m*tc.k, true)
			b := randInt8(uint32(tc.k*tc.n+1), tc.k*tc.n, false)
			want := make([]int32, tc.m*tc.n)
			MulInt8Ref(want, a, b, tc.m, tc.k, tc.n)
			got := make([]int32, tc.m*tc.n)
			pb := PackBInt8(b, tc.k, tc.n)
			pb.MulInto(got, a, tc.m, make([]int32, tc.m))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("element %d: got %d want %d", i, got[i], want[i])
				}
			}
		})
	}
}

// TestPackedBInt8ChunkedRows verifies that computing row blocks separately
// (the way a pooled kernel splits m over workers) yields identical results.
func TestPackedBInt8ChunkedRows(t *testing.T) {
	m, k, n := 23, 48, 37
	a := randInt8(9, m*k, true)
	b := randInt8(10, k*n, false)
	pb := PackBInt8(b, k, n)
	whole := make([]int32, m*n)
	pb.MulInto(whole, a, m, make([]int32, m))
	chunked := make([]int32, m*n)
	for start := 0; start < m; start += 5 {
		end := start + 5
		if end > m {
			end = m
		}
		pb.MulInto(chunked[start*n:end*n], a[start*k:end*k], end-start, make([]int32, end-start))
	}
	for i := range whole {
		if whole[i] != chunked[i] {
			t.Fatalf("element %d: chunked %d != whole %d", i, chunked[i], whole[i])
		}
	}
}

// TestPackedBInt8SIMDMatchesPortableBitwise is the differential test of the
// raw int8 GEMM: over every byte value on both sides — −128 and, read
// unsigned, 255 among them — the assembly, its Go twin and MulInt8Ref agree exactly, in the signed and
// the unsigned mode, for row counts around the four-row block, depths around
// a quad and widths around a panel. The destination is prefilled: every
// element must be written.
func TestPackedBInt8SIMDMatchesPortableBitwise(t *testing.T) {
	seed := uint32(1)
	bytes := func(n int) []int8 {
		out := make([]int8, n)
		for i := range out {
			seed = seed*1664525 + 1013904223
			out[i] = int8(seed >> 24)
			if seed>>8&7 == 0 {
				out[i] = []int8{-128, -1, 127, 0}[seed>>12&3] // the extremes of both readings, and a zero
			}
		}
		return out
	}
	for _, m := range []int{1, 3, 4, 5, 9} {
		for _, k := range []int{1, 3, 4, 7, 16, 33, 130} {
			for _, n := range []int{1, 5, 16, 17, 40} {
				a, b := bytes(m*k), bytes(k*n)
				au := make([]uint8, len(a))
				for i, v := range a {
					au[i] = uint8(v)
				}
				want, wantU := make([]int32, m*n), make([]int32, m*n)
				MulInt8Ref(want, a, b, m, k, n)
				MulInt8Ref(wantU, au, b, m, k, n)
				pb := PackBInt8(b, k, n)
				for name, impl := range map[string]*PackedBInt8{"active": pb, "portable": pb.Portable()} {
					got, gotU := make([]int32, m*n), make([]int32, m*n)
					for i := range got {
						got[i], gotU[i] = -7, -7
					}
					impl.MulInto(got, a, m, nil)
					impl.MulIntoU8(gotU, au, m, nil)
					for i := range want {
						if got[i] != want[i] || gotU[i] != wantU[i] {
							t.Fatalf("%dx%dx%d %s element %d: signed %d want %d, unsigned %d want %d", m, k, n, name, i, got[i], want[i], gotU[i], wantU[i])
						}
					}
				}
			}
		}
	}
}

// BenchmarkPackedBInt8 reports the int8 GEMM in Gop/s (two ops a
// multiply-add) at the shapes of BenchmarkPackedBFP32Equivalent, whose
// GFLOP/s it is to be read beside.
func BenchmarkPackedBInt8(b *testing.B) {
	for _, sz := range []struct{ m, k, n int }{{196, 256, 256}, {784, 128, 128}, {49, 512, 512}} {
		b.Run(fmt.Sprintf("%dx%dx%d", sz.m, sz.k, sz.n), func(b *testing.B) {
			a := randInt8(1, sz.m*sz.k, true)
			bm := randInt8(2, sz.k*sz.n, false)
			pb := PackBInt8(bm, sz.k, sz.n)
			dst := make([]int32, sz.m*sz.n)
			scratch := make([]int32, sz.m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pb.MulInto(dst, a, sz.m, scratch)
			}
			b.ReportMetric(2*float64(sz.m)*float64(sz.k)*float64(sz.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gop/s")
		})
	}
}

func BenchmarkPackedBFP32Equivalent(b *testing.B) {
	for _, sz := range []struct{ m, k, n int }{{196, 256, 256}, {784, 128, 128}, {49, 512, 512}} {
		b.Run(fmt.Sprintf("%dx%dx%d", sz.m, sz.k, sz.n), func(b *testing.B) {
			ai := randInt8(1, sz.m*sz.k, true)
			bi := randInt8(2, sz.k*sz.n, false)
			a := make([]float32, len(ai))
			for i, v := range ai {
				a[i] = float32(v)
			}
			bm := make([]float32, len(bi))
			for i, v := range bi {
				bm[i] = float32(v)
			}
			pb := PackB(bm, sz.k, sz.n)
			dst := make([]float32, sz.m*sz.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pb.MulInto(dst, a, sz.m)
			}
			b.ReportMetric(2*float64(sz.m)*float64(sz.k)*float64(sz.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
