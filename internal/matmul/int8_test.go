package matmul

import (
	"fmt"
	"strings"
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

// hostInt8Levels returns the int8 levels this host has, "portable" first,
// and reports each one it lacks as a skipped subtest of that name, as
// hostLevels does for fp32.
func hostInt8Levels(t *testing.T) []string {
	for _, lv := range int8Ladder[len(Int8ISAs()):] {
		isa := levelNames[lv]
		t.Run(isa, func(t *testing.T) { t.Skipf("this host has no %s int8 micro-kernel", isa) })
	}
	return Int8ISAs()
}

// int8Impls packs b for each of the levels and returns every pack by level
// name, with the Go twin over that pack's layout as "<level>/twin".
func int8Impls(b []int8, k, n int, levels []string) map[string]*PackedBInt8 {
	pb := PackBInt8(b, k, n)
	impls := make(map[string]*PackedBInt8)
	for _, isa := range levels {
		q := pb.WithISA(isa)
		impls[isa], impls[isa+"/twin"] = q, q.Portable()
	}
	return impls
}

// checkInt8 holds every implementation to MulInt8Ref over the m×k bytes a,
// read as int8 and as uint8, times the k×n b. The destination is prefilled
// and guarded: every element must be written, nothing past the last.
func checkInt8(t *testing.T, impls map[string]*PackedBInt8, a []uint8, b []int8, m, k, n int) {
	t.Helper()
	as := make([]int8, len(a))
	for i, v := range a {
		as[i] = int8(v)
	}
	want, wantU := make([]int32, m*n), make([]int32, m*n)
	MulInt8Ref(want, as, b, m, k, n)
	MulInt8Ref(wantU, a, b, m, k, n)
	const guard = 8
	for name, impl := range impls {
		for _, unsigned := range []bool{false, true} {
			got := make([]int32, m*n+guard)
			for i := range got {
				got[i] = -7
			}
			ref := want
			if unsigned {
				impl.MulRows(got[:m*n], a, m, true)
				ref = wantU
			} else {
				impl.MulInto(got[:m*n], as, m, nil)
			}
			for i, w := range ref {
				if got[i] != w {
					t.Fatalf("%dx%dx%d %s unsigned=%v: row %d col %d = %d, want %d", m, k, n, name, unsigned, i/n, i%n, got[i], w)
				}
			}
			for _, v := range got[m*n:] {
				if v != -7 {
					t.Fatalf("%dx%dx%d %s unsigned=%v: wrote past dst", m, k, n, name, unsigned)
				}
			}
		}
	}
}

// TestPackedBInt8SIMDMatchesPortableBitwise is the differential test of the
// raw int8 GEMM: over every byte value on both sides — −128 and, read
// unsigned, 255 among them — every level the host has, the Go twin over
// each level's layout and MulInt8Ref agree exactly, in the signed and the
// unsigned mode, for row counts around the four- and twelve-row tiles and
// the 32-row amx block, depths around a quad and at whole 64-byte tile rows,
// and widths around a panel and a pair.
func TestPackedBInt8SIMDMatchesPortableBitwise(t *testing.T) {
	levels := hostInt8Levels(t)
	seed := uint32(1)
	bytes := func(n int) []uint8 {
		out := make([]uint8, n)
		for i := range out {
			seed = seed*1664525 + 1013904223
			out[i] = uint8(seed >> 24)
			if seed>>8&7 == 0 {
				out[i] = []uint8{0x80, 0xff, 0x7f, 0}[seed>>12&3] // the extremes of both readings, and a zero
			}
		}
		return out
	}
	for _, m := range []int{1, 3, 4, 5, 9, 11, 12, 13, 21, 24, 25, 31, 32, 33, 70} {
		for _, k := range []int{1, 3, 4, 7, 16, 33, 64, 130, 192} {
			for _, n := range []int{1, 5, 16, 17, 32, 40, 64} {
				a, bu := bytes(m*k), bytes(k*n)
				b := make([]int8, len(bu))
				for i, v := range bu {
					b[i] = int8(v)
				}
				checkInt8(t, int8Impls(b, k, n, levels), a, b, m, k, n)
			}
		}
	}
}

// FuzzPackedBInt8 drives the raw int8 GEMM over m, k and n, both sign modes
// and raw bytes, −128 and 255 among them: every level the host has, and the
// Go twin over each level's layout, must equal MulInt8Ref exactly. A wide
// input — 32 or 33 rows, one amx block or a row more — is deep enough for
// its int32 sums to wrap: 2^17 and more products of −128·−128 or 128·−128,
// which no instruction may saturate.
func FuzzPackedBInt8(f *testing.F) {
	f.Add(uint8(11), uint8(32), uint8(16), []byte{0x80, 0xff, 0x7f, 0x01, 0x00}, false)
	f.Fuzz(func(t *testing.T, mR, kR, nR uint8, raw []byte, wide bool) {
		m, k, n := int(mR)%40+1, int(kR)%140+1, int(nR)%48+1
		if wide {
			if testing.Short() {
				t.Skip("wide inputs take seconds")
			}
			m, k, n = 32+int(mR)%2, 1<<17+int(kR)%140, 16+int(nR)%17
		}
		if len(raw) == 0 {
			raw = []byte{0}
		}
		a, b := make([]uint8, m*k), make([]int8, k*n)
		for i := range a {
			a[i] = raw[i%len(raw)]
		}
		for i := range b {
			b[i] = int8(raw[(i*7+3)%len(raw)])
		}
		impls := int8Impls(b, k, n, Int8ISAs())
		if wide { // the Go loops wrap as MulInt8Ref does; the assembly is on trial
			for name := range impls {
				if name == "portable" || strings.HasSuffix(name, "/twin") {
					delete(impls, name)
				}
			}
		}
		checkInt8(t, impls, a, b, m, k, n)
	})
}

// gemmBenchShapes are the shapes of the int8 and fp32 GEMM benchmarks;
// 169×512×1000 is squeezenet's conv10, the largest int8 GEMM of the
// benchmark's squeezenet_int8_t1 workload.
var gemmBenchShapes = []struct{ m, k, n int }{{196, 256, 256}, {784, 128, 128}, {49, 512, 512}, {169, 512, 1000}}

// BenchmarkPackedBInt8 reports the signed int8 GEMM in Gop/s (two ops a
// multiply-add) at every level the host has, at the shapes of
// BenchmarkPackedBFP32Equivalent, whose GFLOP/s it is to be read beside.
func BenchmarkPackedBInt8(b *testing.B) {
	for _, sz := range gemmBenchShapes {
		a := randInt8(1, sz.m*sz.k, true)
		pb := PackBInt8(randInt8(2, sz.k*sz.n, false), sz.k, sz.n)
		dst := make([]int32, sz.m*sz.n)
		for _, isa := range Int8ISAs() {
			impl := pb.WithISA(isa)
			b.Run(fmt.Sprintf("%s/%dx%dx%d", isa, sz.m, sz.k, sz.n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.MulInto(dst, a, sz.m, nil)
				}
				b.ReportMetric(2*float64(sz.m)*float64(sz.k)*float64(sz.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gop/s")
			})
		}
	}
}

func BenchmarkPackedBFP32Equivalent(b *testing.B) {
	for _, sz := range gemmBenchShapes {
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
