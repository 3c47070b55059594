package winograd

import (
	"math"
	"testing"
	"testing/quick"

	"mnn/internal/tensor"
)

// correlate1D computes y[j] = Σ_i g[i]·d[j+i] directly.
func correlate1D(d, g []float32, n int) []float32 {
	y := make([]float32, n)
	for j := 0; j < n; j++ {
		var s float32
		for i := range g {
			s += g[i] * d[j+i]
		}
		y[j] = s
	}
	return y
}

// winograd1D computes the same via y = AT[(G·g) ⊙ (BT·d)].
func winograd1D(mats *Matrices, d, g []float32) []float32 {
	m, n, k := mats.M, mats.N, mats.K
	gg := make([]float32, m)
	for i := 0; i < m; i++ {
		var s float32
		for j := 0; j < k; j++ {
			s += mats.G[i*k+j] * g[j]
		}
		gg[i] = s
	}
	dd := make([]float32, m)
	for i := 0; i < m; i++ {
		var s float32
		for j := 0; j < m; j++ {
			s += mats.BT[i*m+j] * d[j]
		}
		dd[i] = s
	}
	prod := make([]float32, m)
	for i := range prod {
		prod[i] = gg[i] * dd[i]
	}
	y := make([]float32, n)
	for i := 0; i < n; i++ {
		var s float32
		for j := 0; j < m; j++ {
			s += mats.AT[i*m+j] * prod[j]
		}
		y[i] = s
	}
	return y
}

func TestGenerate1DMatchesDirect(t *testing.T) {
	r := tensor.NewRNG(1)
	for _, tc := range [][2]int{{2, 3}, {4, 3}, {6, 3}, {2, 2}, {4, 2}, {2, 5}, {3, 3}, {4, 5}, {6, 5}, {2, 7}, {4, 7}, {1, 3}} {
		n, k := tc[0], tc[1]
		mats, err := Generate(n, k, DefaultF)
		if err != nil {
			t.Fatalf("F(%d,%d): %v", n, k, err)
		}
		m := n + k - 1
		d := make([]float32, m)
		g := make([]float32, k)
		for i := range d {
			d[i] = r.Float32()
		}
		for i := range g {
			g[i] = r.Float32()
		}
		want := correlate1D(d, g, n)
		got := winograd1D(mats, d, g)
		for i := range want {
			if diff := math.Abs(float64(want[i] - got[i])); diff > 1e-4 {
				t.Errorf("F(%d,%d) output %d: got %v want %v (diff %g)", n, k, i, got[i], want[i], diff)
			}
		}
	}
}

func TestGenerate1DProperty(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%6 + 1
		k := int(kRaw)%5 + 1
		if n+k-1 > 10 {
			return true
		}
		mats, err := Generate(n, k, DefaultF)
		if err != nil {
			return false
		}
		r := tensor.NewRNG(seed)
		m := n + k - 1
		d := make([]float32, m)
		g := make([]float32, k)
		for i := range d {
			d[i] = r.Float32()
		}
		for i := range g {
			g[i] = r.Float32()
		}
		want := correlate1D(d, g, n)
		got := winograd1D(mats, d, g)
		for i := range want {
			if math.Abs(float64(want[i]-got[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// direct 2D correlation of an m×m tile with a k×k kernel producing n×n.
func correlate2D(d []float32, m int, g []float32, k, n int) []float32 {
	y := make([]float32, n*n)
	for oy := 0; oy < n; oy++ {
		for ox := 0; ox < n; ox++ {
			var s float32
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					s += g[ky*k+kx] * d[(oy+ky)*m+(ox+kx)]
				}
			}
			y[oy*n+ox] = s
		}
	}
	return y
}

// sandwich returns L·src·Rᵀ for L lm×lk, src lk×rk and R rm×rk: a tile
// transform applied along both axes.
func sandwich(l, src, r []float32, lm, lk, rk, rm int) []float32 {
	dst := make([]float32, lm*rm)
	for i := 0; i < lm; i++ {
		for j := 0; j < rm; j++ {
			for p := 0; p < lk; p++ {
				for q := 0; q < rk; q++ {
					dst[i*rm+j] += l[i*lk+p] * src[p*rk+q] * r[j*rk+q]
				}
			}
		}
	}
	return dst
}

func mustGenerate(t *testing.T, n, k int) *Matrices {
	t.Helper()
	m, err := Generate(n, k, DefaultF)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTransform2DMatchesDirect(t *testing.T) {
	r := tensor.NewRNG(2)
	for _, tc := range [][2]int{{2, 3}, {4, 3}, {6, 3}, {2, 5}, {4, 5}, {2, 2}, {4, 2}} {
		n, k := tc[0], tc[1]
		mats := mustGenerate(t, n, k)
		m := mats.M
		d := make([]float32, m*m)
		g := make([]float32, k*k)
		for i := range d {
			d[i] = r.Float32()
		}
		for i := range g {
			g[i] = r.Float32()
		}
		wT := sandwich(mats.G, g, mats.G, m, k, k, m)
		xT := sandwich(mats.BT, d, mats.BT, m, m, m, m)
		prod := make([]float32, m*m)
		for i := range prod {
			prod[i] = wT[i] * xT[i]
		}
		y := sandwich(mats.AT, prod, mats.AT, n, m, m, n)

		want := correlate2D(d, m, g, k, n)
		for i := range want {
			if math.Abs(float64(want[i]-y[i])) > 2e-4 {
				t.Errorf("F(%dx%d,%dx%d) elem %d: got %v want %v", n, n, k, k, i, y[i], want[i])
			}
		}
	}
}

func TestKnownF23Structure(t *testing.T) {
	// For F(2,3) with points {0, ±f, ∞}, AT must be 2×4 and BT 4×4;
	// AT row 0 should read the even combination: [1, 1, 1, 0].
	mats := mustGenerate(t, 2, 3)
	if mats.M != 4 || len(mats.AT) != 8 || len(mats.BT) != 16 || len(mats.G) != 12 {
		t.Fatalf("bad dims: m=%d", mats.M)
	}
	// AT = Eyᵀ where Ey rows are [1, p] for p ∈ {0, f, -f} plus ∞ row [0,1].
	want := []float32{1, 1, 1, 0, 0, 0.5, -0.5, 1}
	for i := range want {
		if math.Abs(float64(mats.AT[i]-want[i])) > 1e-6 {
			t.Fatalf("AT[%d] = %v, want %v", i, mats.AT[i], want[i])
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(0, 3, DefaultF); err == nil {
		t.Error("n=0 must fail")
	}
	if _, err := Generate(3, 0, DefaultF); err == nil {
		t.Error("k=0 must fail")
	}
	if _, err := Generate(10, 5, DefaultF); err == nil {
		t.Error("m=14 must fail")
	}
}

func TestPointsSpacing(t *testing.T) {
	pts := points(5, 0.5)
	want := []float64{0, 0.5, -0.5, 1, -1}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("points = %v, want %v", pts, want)
		}
	}
}

func TestNumericalErrorSmallWithHalfSpacing(t *testing.T) {
	// f = 0.5 (paper's choice) must give clearly lower error than f = 2 for
	// a large tile, demonstrating why Equation 8 includes the scalar f.
	errFor := func(f float64) float64 {
		mats, err := Generate(6, 3, f)
		if err != nil {
			t.Fatal(err)
		}
		r := tensor.NewRNG(3)
		var worst float64
		for trial := 0; trial < 20; trial++ {
			m := mats.M
			d := make([]float32, m)
			g := make([]float32, 3)
			for i := range d {
				d[i] = r.Float32()
			}
			for i := range g {
				g[i] = r.Float32()
			}
			want := correlate1D(d, g, 6)
			got := winograd1D(mats, d, g)
			for i := range want {
				if e := math.Abs(float64(want[i] - got[i])); e > worst {
					worst = e
				}
			}
		}
		return worst
	}
	ePaper, eBig := errFor(0.5), errFor(2.0)
	if ePaper > 1e-3 {
		t.Errorf("f=0.5 error too large: %g", ePaper)
	}
	if eBig <= ePaper {
		t.Logf("note: f=2 error %g not worse than f=0.5 error %g (acceptable but unexpected)", eBig, ePaper)
	}
}

func TestInvertIdentity(t *testing.T) {
	a := []float64{2, 0, 0, 0, 3, 0, 0, 0, 4}
	inv, err := invert(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0, 0, 0, 1.0 / 3, 0, 0, 0, 0.25}
	for i := range want {
		if math.Abs(inv[i]-want[i]) > 1e-12 {
			t.Fatalf("invert diag: %v", inv)
		}
	}
}

func TestInvertSingular(t *testing.T) {
	a := []float64{1, 2, 2, 4}
	if _, err := invert(a, 2); err == nil {
		t.Fatal("expected singular error")
	}
}
