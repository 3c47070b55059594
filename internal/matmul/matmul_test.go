package matmul

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"mnn/internal/tensor"
)

// naive reference multiply.
func refMul(a, b []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a[i*k+p]) * float64(b[p*n+j])
			}
			out[i*n+j] = float32(s)
		}
	}
	return out
}

func randMat(seed uint64, rows, cols int) []float32 {
	r := tensor.NewRNG(seed)
	out := make([]float32, rows*cols)
	for i := range out {
		out[i] = r.Float32()
	}
	return out
}

func maxDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestMulSmall(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5, 6}    // 2×3
	b := []float32{7, 8, 9, 10, 11, 12} // 3×2
	dst := make([]float32, 4)
	Mul(dst, a, b, 2, 3, 2)
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}

func TestMulMatchesReference(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {16, 16, 16}, {33, 17, 65}, {64, 128, 32}, {100, 1, 100}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMat(1, m, k)
		b := randMat(2, k, n)
		dst := make([]float32, m*n)
		Mul(dst, a, b, m, k, n)
		want := refMul(a, b, m, k, n)
		if d := maxDiff(dst, want); d > 1e-4*float64(k) {
			t.Errorf("(%d,%d,%d): max diff %g", m, k, n, d)
		}
	}
}

func TestStrassenMatchesDirect(t *testing.T) {
	for _, dims := range [][3]int{
		{64, 64, 64},
		{128, 128, 128},
		{256, 256, 256},
		{100, 100, 100}, // even-ish but not power of two
		{127, 129, 131}, // all odd
		{256, 64, 256},
		{65, 256, 65},
		{512, 3, 512}, // thin inner dim never recurses
	} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMat(5, m, k)
		b := randMat(6, k, n)
		got := make([]float32, m*n)
		MulStrassen(got, a, b, m, k, n)
		want := make([]float32, m*n)
		Mul(want, a, b, m, k, n)
		if d := maxDiff(got, want); d > 1e-3*math.Sqrt(float64(k)) {
			t.Errorf("(%d,%d,%d): strassen diff %g", m, k, n, d)
		}
	}
}

func TestStrassenProperty(t *testing.T) {
	f := func(seed uint64, mRaw, kRaw, nRaw uint8) bool {
		m := int(mRaw)%96 + 32
		k := int(kRaw)%96 + 32
		n := int(nRaw)%96 + 32
		a := randMat(seed, m, k)
		b := randMat(seed+1, k, n)
		got := make([]float32, m*n)
		MulStrassen(got, a, b, m, k, n)
		want := make([]float32, m*n)
		Mul(want, a, b, m, k, n)
		return maxDiff(got, want) <= 1e-3*math.Sqrt(float64(k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestShouldRecurseEquation9(t *testing.T) {
	// Isolate the pure Eq. 9 inequality from the calibrated floor.
	saved := MinSplitDim
	MinSplitDim = 2
	defer func() { MinSplitDim = saved }()

	// For a cube of size s the inequality reduces to s/8·s² > s² + s² + 1.75s²
	// i.e. s > 30. So 32 recurses, 24 does not.
	if !ShouldRecurse(32, 32, 32) {
		t.Error("32³ should recurse")
	}
	if ShouldRecurse(24, 24, 24) {
		t.Error("24³ should not recurse")
	}
	// Thin matrices never recurse regardless of the other dims.
	if ShouldRecurse(1, 1024, 1024) {
		t.Error("m=1 should never recurse")
	}
	if ShouldRecurse(1024, 1, 1024) {
		t.Error("k=1 should never recurse")
	}
}

func TestShouldRecurseCalibratedFloor(t *testing.T) {
	// With the default calibrated floor, sub-128 matrices never split even
	// though Eq. 9 alone would allow it.
	if ShouldRecurse(64, 64, 64) {
		t.Error("64³ must not recurse under the calibrated floor")
	}
	if !ShouldRecurse(128, 128, 128) {
		t.Error("128³ should recurse")
	}
}

func TestStrassenRecursionDepth(t *testing.T) {
	// 256³ splits twice under the default floor: 256 → 128 → 64 leaves.
	a := randMat(7, 256, 256)
	b := randMat(8, 256, 256)
	dst := make([]float32, 256*256)
	st := MulStrassen(dst, a, b, 256, 256, 256)
	if st.Recursions == 0 {
		t.Fatal("expected recursion for 256³")
	}
	if st.BaseCalls != 49 {
		t.Errorf("leaf calls = %d, want 49 (two levels: 256→128→64)", st.BaseCalls)
	}

	// Small matrices take the direct path.
	small := MulStrassen(make([]float32, 16*16), randMat(9, 16, 16), randMat(10, 16, 16), 16, 16, 16)
	if small.Recursions != 0 || small.BaseCalls != 1 {
		t.Errorf("16³: %+v, want direct", small)
	}
}

func TestStrassenMULsSavings(t *testing.T) {
	direct := DirectMULs(1024, 1024, 1024)
	strassen := StrassenMULs(1024, 1024, 1024)
	if strassen >= direct {
		t.Fatalf("strassen MULs %d >= direct %d", strassen, direct)
	}
	// Four levels of recursion: (7/8)⁴ ≈ 0.586 of direct.
	ratio := float64(strassen) / float64(direct)
	if ratio > 0.75 || ratio < 0.4 {
		t.Errorf("unexpected MUL ratio %v", ratio)
	}
	// No-recursion case returns exactly the direct count.
	if StrassenMULs(16, 16, 16) != DirectMULs(16, 16, 16) {
		t.Error("small case must match direct count")
	}
}

func TestMulPanicsOnShortBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(make([]float32, 3), make([]float32, 4), make([]float32, 4), 2, 2, 2)
}

func BenchmarkGEMM256(b *testing.B) {
	a := randMat(1, 256, 256)
	bb := randMat(2, 256, 256)
	dst := make([]float32, 256*256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(dst, a, bb, 256, 256, 256)
	}
}

func BenchmarkStrassen256(b *testing.B) {
	a := randMat(1, 256, 256)
	bb := randMat(2, 256, 256)
	dst := make([]float32, 256*256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulStrassen(dst, a, bb, 256, 256, 256)
	}
}

// --- PR 3: scratch-backed Strassen and packed panels ---------------------

func TestMulStrassenScratchMatchesMulStrassen(t *testing.T) {
	for _, c := range []struct{ m, k, n int }{
		{64, 64, 64}, {127, 129, 63}, {256, 256, 256}, {100, 500, 30},
	} {
		a := randMat(11, c.m, c.k)
		b := randMat(12, c.k, c.n)
		want := make([]float32, c.m*c.n)
		MulStrassen(want, a, b, c.m, c.k, c.n)
		got := make([]float32, c.m*c.n)
		scratch := make([]float32, StrassenScratch(c.m, c.k, c.n))
		for i := range scratch {
			scratch[i] = -12345 // prove every temporary is overwritten before read
		}
		MulStrassenScratch(got, a, b, c.m, c.k, c.n, scratch)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%dx%dx%d: scratch result differs at %d: %v vs %v",
					c.m, c.k, c.n, i, got[i], want[i])
			}
		}
		// A short slab must still be correct (falls back to allocating).
		got2 := make([]float32, c.m*c.n)
		MulStrassenScratch(got2, a, b, c.m, c.k, c.n, scratch[:len(scratch)/3])
		for i := range want {
			if want[i] != got2[i] {
				t.Fatalf("%dx%dx%d: short-scratch result differs at %d", c.m, c.k, c.n, i)
			}
		}
	}
}

func TestMulStrassenScratchZeroAlloc(t *testing.T) {
	const m, k, n = 256, 256, 256
	a := randMat(13, m, k)
	b := randMat(14, k, n)
	dst := make([]float32, m*n)
	scratch := make([]float32, StrassenScratch(m, k, n))
	if len(scratch) == 0 {
		t.Skip("shape does not recurse under current MinSplitDim")
	}
	allocs := testing.AllocsPerRun(3, func() {
		MulStrassenScratch(dst, a, b, m, k, n, scratch)
	})
	if allocs != 0 {
		t.Errorf("MulStrassenScratch allocated %.1f objects/op, want 0", allocs)
	}
}

func TestPackedMulMatchesMulBitwise(t *testing.T) {
	for _, c := range []struct{ m, k, n int }{
		{1, 8, 16}, {7, 33, 50}, {64, 128, 96}, {5, 100, 1000}, {3, 17, 15},
	} {
		a := randMat(11, c.m, c.k)
		b := randMat(12, c.k, c.n)
		a[0] = 0 // a zero activation, which no path skips
		want := make([]float32, c.m*c.n)
		Mul(want, a, b, c.m, c.k, c.n)
		pb := PackB(b, c.k, c.n)
		got := make([]float32, c.m*c.n)
		pb.MulInto(got, a, c.m)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%dx%dx%d: packed result differs at %d: %v vs %v",
					c.m, c.k, c.n, i, got[i], want[i])
			}
		}
	}
}

func TestPackedMulZeroAlloc(t *testing.T) {
	const m, k, n = 64, 128, 96
	a := randMat(15, m, k)
	pb := PackB(randMat(16, k, n), k, n)
	dst := make([]float32, m*n)
	allocs := testing.AllocsPerRun(5, func() {
		pb.MulInto(dst, a, m)
	})
	if allocs != 0 {
		t.Errorf("PackedB.MulInto allocated %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkPackedVsDirect(b *testing.B) {
	const m, n = 256, 256
	for _, k := range []int{3, 8, 12, 256} {
		a := randMat(17, m, k)
		bm := randMat(18, k, n)
		dst := make([]float32, m*n)
		b.Run(fmt.Sprintf("k%d/direct", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Mul(dst, a, bm, m, k, n)
			}
		})
		for _, isa := range ISAs() {
			pb := PackB(bm, k, n).WithISA(isa)
			b.Run(fmt.Sprintf("k%d/%s", k, isa), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pb.MulInto(dst, a, m)
				}
			})
		}
	}
}
