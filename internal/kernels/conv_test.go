package kernels

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"mnn/internal/graph"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// testPool returns a worker pool with n lanes, closed when the test ends.
func testPool(tb testing.TB, n int) *sched.Pool {
	tb.Helper()
	p := sched.New(n)
	tb.Cleanup(p.Close)
	return p
}

// convCase describes one convolution configuration under test.
type convCase struct {
	name            string
	n, ic, h, w, oc int
	kh, kw          int
	sh, sw          int
	dh, dw          int
	ph, pw          int
	group           int
	relu, relu6     bool
}

func (cc convCase) attrs() *graph.Conv2DAttrs {
	g := cc.group
	if g == 0 {
		g = 1
	}
	return &graph.Conv2DAttrs{
		KernelH: cc.kh, KernelW: cc.kw,
		StrideH: cc.sh, StrideW: cc.sw,
		DilationH: cc.dh, DilationW: cc.dw,
		PadH: cc.ph, PadW: cc.pw,
		Group: g, OutputCount: cc.oc, InputCount: cc.ic,
		ReLU: cc.relu, ReLU6: cc.relu6,
	}
}

// runRef computes the oracle output in NCHW.
func runRef(t *testing.T, cc convCase, seed uint64) (src, weight, bias, dst *tensor.Tensor) {
	t.Helper()
	a := cc.attrs()
	src = tensor.NewRandom(seed, 1, cc.n, cc.ic, cc.h, cc.w)
	g := a.Group
	weight = tensor.NewRandom(seed+1, 1, cc.oc, cc.ic/g, cc.kh, cc.kw)
	bias = tensor.NewRandom(seed+2, 1, cc.oc)
	oh, ow, err := graph.ConvOutputSize(cc.h, cc.w, a)
	if err != nil {
		t.Fatal(err)
	}
	dst = tensor.New(cc.n, cc.oc, oh, ow)
	ConvRef(dst, src, weight, bias, a)
	return
}

func TestSlidingConvMatchesRef(t *testing.T) {
	cases := []convCase{
		{name: "3x3s1p1", n: 1, ic: 3, h: 8, w: 8, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1},
		{name: "3x3s2p1", n: 1, ic: 8, h: 9, w: 9, oc: 4, kh: 3, kw: 3, sh: 2, sw: 2, ph: 1, pw: 1},
		{name: "5x5s1p2", n: 2, ic: 6, h: 7, w: 7, oc: 10, kh: 5, kw: 5, sh: 1, sw: 1, ph: 2, pw: 2},
		{name: "1x7", n: 1, ic: 4, h: 9, w: 9, oc: 6, kh: 1, kw: 7, sh: 1, sw: 1, ph: 0, pw: 3},
		{name: "7x1", n: 1, ic: 4, h: 9, w: 9, oc: 6, kh: 7, kw: 1, sh: 1, sw: 1, ph: 3, pw: 0},
		{name: "dilated", n: 1, ic: 5, h: 10, w: 10, oc: 7, kh: 3, kw: 3, sh: 1, sw: 1, dh: 2, dw: 2, ph: 2, pw: 2},
		{name: "relu", n: 1, ic: 3, h: 6, w: 6, oc: 5, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1, relu: true},
		{name: "relu6", n: 1, ic: 3, h: 6, w: 6, oc: 5, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1, relu6: true},
		{name: "nonsquare-stride", n: 1, ic: 4, h: 12, w: 8, oc: 4, kh: 3, kw: 3, sh: 2, sw: 1, ph: 1, pw: 1},
	}
	for _, cc := range cases {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/t%d", cc.name, threads), func(t *testing.T) {
				src, weight, bias, want := runRef(t, cc, 42)
				sc := PrepareSliding(weight, bias, cc.attrs())
				src4 := src.ToLayout(tensor.NC4HW4)
				dst4 := tensor.NewWithLayout(tensor.NC4HW4, want.Shape()...)
				sc.Run(dst4, src4, testPool(t, threads))
				if d := tensor.MaxAbsDiff(want, dst4); d > 1e-3 {
					t.Fatalf("max diff %g", d)
				}
			})
		}
	}
}

func TestDepthwiseConvMatchesRef(t *testing.T) {
	cases := []convCase{
		{name: "dw3x3s1", n: 1, ic: 8, h: 8, w: 8, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1, group: 8},
		{name: "dw3x3s2", n: 1, ic: 16, h: 9, w: 9, oc: 16, kh: 3, kw: 3, sh: 2, sw: 2, ph: 1, pw: 1, group: 16},
		{name: "dw5x5", n: 2, ic: 6, h: 10, w: 10, oc: 6, kh: 5, kw: 5, sh: 1, sw: 1, ph: 2, pw: 2, group: 6},
		{name: "dw-relu6", n: 1, ic: 12, h: 7, w: 7, oc: 12, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1, group: 12, relu6: true},
		{name: "dw-unaligned", n: 1, ic: 7, h: 6, w: 6, oc: 7, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1, group: 7},
	}
	for _, cc := range cases {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/t%d", cc.name, threads), func(t *testing.T) {
				src, weight, bias, want := runRef(t, cc, 7)
				dc := PrepareDepthwise(weight, bias, cc.attrs())
				src4 := src.ToLayout(tensor.NC4HW4)
				dst4 := tensor.NewWithLayout(tensor.NC4HW4, want.Shape()...)
				dc.Run(dst4, src4, testPool(t, threads))
				if d := tensor.MaxAbsDiff(want, dst4); d > 1e-3 {
					t.Fatalf("max diff %g", d)
				}
			})
		}
	}
}

func TestWinogradConvMatchesRef(t *testing.T) {
	cases := []struct {
		cc     convCase
		nh, nw int
	}{
		{convCase{name: "F2_3x3", n: 1, ic: 4, h: 10, w: 10, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1}, 2, 2},
		{convCase{name: "F4_3x3", n: 1, ic: 8, h: 16, w: 16, oc: 8, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1}, 4, 4},
		{convCase{name: "F6_3x3", n: 1, ic: 4, h: 24, w: 24, oc: 4, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1}, 6, 6},
		{convCase{name: "F2_5x5", n: 1, ic: 3, h: 12, w: 12, oc: 6, kh: 5, kw: 5, sh: 1, sw: 1, ph: 2, pw: 2}, 2, 2},
		{convCase{name: "F4_2x2", n: 1, ic: 5, h: 9, w: 9, oc: 5, kh: 2, kw: 2, sh: 1, sw: 1, ph: 0, pw: 0}, 4, 4},
		// Asymmetric kernels — the Inception-v3 cases of Figure 8.
		{convCase{name: "F1x4_1x7", n: 1, ic: 4, h: 9, w: 17, oc: 4, kh: 1, kw: 7, sh: 1, sw: 1, ph: 0, pw: 3}, 4, 4},
		{convCase{name: "F4x1_7x1", n: 1, ic: 4, h: 17, w: 9, oc: 4, kh: 7, kw: 1, sh: 1, sw: 1, ph: 3, pw: 0}, 4, 4},
		// Output size not divisible by tile (edge tiles clipped).
		{convCase{name: "ragged", n: 2, ic: 6, h: 11, w: 13, oc: 7, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1}, 4, 4},
		// Activation fused.
		{convCase{name: "F4relu", n: 1, ic: 4, h: 12, w: 12, oc: 4, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1, relu: true}, 4, 4},
	}
	for _, tc := range cases {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/t%d", tc.cc.name, threads), func(t *testing.T) {
				src, weight, bias, want := runRef(t, tc.cc, 11)
				wc, err := PrepareWinograd(weight, bias, tc.cc.attrs(), tc.nh, tc.nw)
				if err != nil {
					t.Fatal(err)
				}
				src4 := src.ToLayout(tensor.NC4HW4)
				dst4 := tensor.NewWithLayout(tensor.NC4HW4, want.Shape()...)
				wc.Run(dst4, src4, testPool(t, threads), nil)
				if d := tensor.MaxAbsDiff(want, dst4); d > 5e-3 {
					t.Fatalf("max diff %g", d)
				}
			})
		}
	}
}

func TestWinogradSmallTileBlock(t *testing.T) {
	// Force multiple tile blocks to exercise block iteration.
	cc := convCase{n: 1, ic: 4, h: 20, w: 20, oc: 4, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1}
	src, weight, bias, want := runRef(t, cc, 13)
	wc, err := PrepareWinograd(weight, bias, cc.attrs(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	wc.tileBlock = 4 // 100 tiles → 25 blocks
	src4 := src.ToLayout(tensor.NC4HW4)
	dst4 := tensor.NewWithLayout(tensor.NC4HW4, want.Shape()...)
	wc.Run(dst4, src4, testPool(t, 3), nil)
	if d := tensor.MaxAbsDiff(want, dst4); d > 5e-3 {
		t.Fatalf("max diff %g", d)
	}
}

func TestWinogradRejectsStride2(t *testing.T) {
	a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, Group: 1, OutputCount: 4, InputCount: 4}
	w := tensor.New(4, 4, 3, 3)
	if _, err := PrepareWinograd(w, nil, a, 2, 2); err == nil {
		t.Fatal("expected stride error")
	}
}

func TestWinogradRejectsDilation(t *testing.T) {
	a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, DilationH: 2, DilationW: 2, Group: 1, OutputCount: 4, InputCount: 4}
	w := tensor.New(4, 4, 3, 3)
	if _, err := PrepareWinograd(w, nil, a, 2, 2); err == nil {
		t.Fatal("expected dilation error")
	}
}

func TestConv1x1MatchesRef(t *testing.T) {
	cases := []convCase{
		{name: "small", n: 1, ic: 8, h: 6, w: 6, oc: 16, kh: 1, kw: 1, sh: 1, sw: 1},
		{name: "unaligned", n: 1, ic: 7, h: 5, w: 5, oc: 9, kh: 1, kw: 1, sh: 1, sw: 1},
		{name: "stride2", n: 1, ic: 8, h: 8, w: 8, oc: 8, kh: 1, kw: 1, sh: 2, sw: 2},
		{name: "batch2", n: 2, ic: 12, h: 7, w: 7, oc: 6, kh: 1, kw: 1, sh: 1, sw: 1},
		{name: "relu", n: 1, ic: 8, h: 6, w: 6, oc: 8, kh: 1, kw: 1, sh: 1, sw: 1, relu: true},
		// Channel counts that leave a partial last panel (oc%16 != 0).
		{name: "wide", n: 1, ic: 130, h: 16, w: 16, oc: 140, kh: 1, kw: 1, sh: 1, sw: 1},
	}
	for _, cc := range cases {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/t%d", cc.name, threads), func(t *testing.T) {
				src, weight, bias, want := runRef(t, cc, 23)
				c := PrepareConv1x1(weight, bias, cc.attrs())
				src4 := src.ToLayout(tensor.NC4HW4)
				dst4 := tensor.NewWithLayout(tensor.NC4HW4, want.Shape()...)
				c.Run(dst4, src4, testPool(t, threads))
				if d := tensor.MaxAbsDiff(want, dst4); d > 5e-3 {
					t.Fatalf("max diff %g", d)
				}
			})
		}
	}
}

// TestConv1x1BitwiseAcrossLanesAndBatch pins the two invariants the serving
// tier builds on: the lane count never changes a bit of the output (the row
// split only decides who computes a row, not how), and a batch-N run equals
// N batch-1 runs. The shapes leave m%4 tail rows, a partial last panel
// (oc%16 != 0) and odd per-lane row blocks.
func TestConv1x1BitwiseAcrossLanesAndBatch(t *testing.T) {
	for _, cc := range []convCase{
		{name: "mobilenet-7x7", n: 3, ic: 64, h: 7, w: 7, oc: 72, kh: 1, kw: 1, sh: 1, sw: 1, relu: true},
		{name: "wide", n: 2, ic: 130, h: 16, w: 16, oc: 140, kh: 1, kw: 1, sh: 1, sw: 1},
		{name: "stride2-tinyK", n: 2, ic: 8, h: 9, w: 9, oc: 20, kh: 1, kw: 1, sh: 2, sw: 2},
	} {
		t.Run(cc.name, func(t *testing.T) {
			src, weight, bias, want := runRef(t, cc, 29)
			c := PrepareConv1x1(weight, bias, cc.attrs())
			run := func(in *tensor.Tensor, lanes int) *tensor.Tensor {
				shape := append([]int{in.Batch()}, want.Shape()[1:]...)
				out := tensor.NewWithLayout(tensor.NC4HW4, shape...)
				c.Run(out, in.ToLayout(tensor.NC4HW4), testPool(t, lanes))
				return out.ToLayout(tensor.NCHW)
			}
			base := run(src, 1)
			for _, lanes := range []int{2, 3} {
				if got := run(src, lanes); !bitsEqual(got.Data(), base.Data()) {
					t.Fatalf("%d lanes differ bitwise from 1 lane", lanes)
				}
			}
			per := len(base.Data()) / cc.n
			inPer := len(src.Data()) / cc.n
			for n := 0; n < cc.n; n++ {
				one := tensor.New(1, cc.ic, cc.h, cc.w)
				copy(one.Data(), src.Data()[n*inPer:(n+1)*inPer])
				for _, lanes := range []int{1, 2} {
					if got := run(one, lanes); !bitsEqual(got.Data(), base.Data()[n*per:(n+1)*per]) {
						t.Fatalf("sample %d alone (%d lanes) differs bitwise from its slice of the batch-%d run", n, lanes, cc.n)
					}
				}
			}
		})
	}
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestIm2colConvMatchesRef(t *testing.T) {
	cases := []convCase{
		{name: "3x3", n: 1, ic: 4, h: 8, w: 8, oc: 6, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1},
		{name: "grouped", n: 1, ic: 8, h: 8, w: 8, oc: 12, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1, group: 4},
		{name: "stride-dil", n: 1, ic: 3, h: 13, w: 13, oc: 5, kh: 3, kw: 3, sh: 2, sw: 2, dh: 2, dw: 2, ph: 2, pw: 2},
		{name: "asym", n: 2, ic: 3, h: 9, w: 11, oc: 4, kh: 1, kw: 7, sh: 1, sw: 1, ph: 0, pw: 3},
		{name: "relu6", n: 1, ic: 4, h: 6, w: 6, oc: 4, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1, relu6: true},
	}
	for _, cc := range cases {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/t%d", cc.name, threads), func(t *testing.T) {
				src, weight, bias, want := runRef(t, cc, 31)
				c := PrepareIm2col(weight, bias, cc.attrs())
				dst := tensor.New(want.Shape()...)
				c.Run(dst, src, testPool(t, threads), nil)
				if d := tensor.MaxAbsDiff(want, dst); d > 1e-3 {
					t.Fatalf("max diff %g", d)
				}
			})
		}
	}
}

// Property test: the three optimized general-conv implementations agree with
// the oracle on random configurations.
func TestConvImplementationsAgreeProperty(t *testing.T) {
	pool := testPool(t, 2)
	f := func(seed uint64, icR, ocR, hR, kR uint8) bool {
		ic := int(icR)%7 + 1
		oc := int(ocR)%9 + 1
		h := int(hR)%10 + 5
		k := []int{1, 2, 3, 5}[int(kR)%4]
		pad := k / 2
		cc := convCase{n: 1, ic: ic, h: h, w: h, oc: oc, kh: k, kw: k, sh: 1, sw: 1, ph: pad, pw: pad}
		a := cc.attrs()
		src := tensor.NewRandom(seed, 1, 1, ic, h, h)
		weight := tensor.NewRandom(seed+1, 1, oc, ic, k, k)
		oh, ow, err := graph.ConvOutputSize(h, h, a)
		if err != nil {
			return true // skip invalid configs
		}
		want := tensor.New(1, oc, oh, ow)
		ConvRef(want, src, weight, nil, a)

		src4 := src.ToLayout(tensor.NC4HW4)

		sc := PrepareSliding(weight, nil, a)
		dstS := tensor.NewWithLayout(tensor.NC4HW4, 1, oc, oh, ow)
		sc.Run(dstS, src4, pool)
		if tensor.MaxAbsDiff(want, dstS) > 1e-2 {
			return false
		}

		im := PrepareIm2col(weight, nil, a)
		dstI := tensor.New(1, oc, oh, ow)
		im.Run(dstI, src, pool, nil)
		if tensor.MaxAbsDiff(want, dstI) > 1e-2 {
			return false
		}

		if k > 1 {
			wc, err := PrepareWinograd(weight, nil, a, 2, 2)
			if err != nil {
				return false
			}
			dstW := tensor.NewWithLayout(tensor.NC4HW4, 1, oc, oh, ow)
			wc.Run(dstW, src4, pool, nil)
			if tensor.MaxAbsDiff(want, dstW) > 5e-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDeconvRefShape(t *testing.T) {
	a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1,
		Group: 1, OutputCount: 2, InputCount: 3}
	src := tensor.NewRandom(1, 1, 1, 3, 4, 4)
	weight := tensor.NewRandom(2, 1, 3, 2, 3, 3) // [ic, oc, kh, kw]
	dst := tensor.New(1, 2, 7, 7)
	DeconvRef(dst, src, weight, nil, a)
	// Spot-check one value: deconv output at (0,0) collects src(0,0)·w(1,1)
	// (kernel center hits due to pad 1).
	var want float64
	for ic := 0; ic < 3; ic++ {
		want += float64(src.At(0, ic, 0, 0)) * float64(weight.At(ic, 0, 1, 1))
	}
	got := float64(dst.At(0, 0, 0, 0))
	if diff := got - want; diff > 1e-4 || diff < -1e-4 {
		t.Fatalf("deconv corner: got %v want %v", got, want)
	}
}
