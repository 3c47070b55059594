package kernels

import (
	"fmt"
	"math"
	"testing"

	"mnn/internal/core"
	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// quantBudget is the max-abs error allowed between an int8 kernel and the
// fp32 reference on unit-scale random inputs: a few quantization steps of
// accumulated rounding noise.
func quantBudget(maxAbsOut float64) float64 { return 0.04 * maxAbsOut }

func maxAbsOf(t *tensor.Tensor) float64 {
	var m float64
	for _, v := range t.ToLayout(tensor.NCHW).Data() {
		x := float64(v)
		if x < 0 {
			x = -x
		}
		if x > m {
			m = x
		}
	}
	return m
}

func TestQuantConvMatchesRef(t *testing.T) {
	pool := sched.New(4)
	defer pool.Close()
	for _, tc := range []struct {
		name   string
		attrs  graph.Conv2DAttrs
		ic, hw int
	}{
		{"3x3", graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Group: 1, InputCount: 8, OutputCount: 16}, 8, 12},
		{"1x1", graph.Conv2DAttrs{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, Group: 1, InputCount: 32, OutputCount: 24, ReLU: true}, 32, 9},
		{"5x5s2", graph.Conv2DAttrs{KernelH: 5, KernelW: 5, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2, Group: 1, InputCount: 6, OutputCount: 10, ReLU6: true}, 6, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.attrs
			src := tensor.NewRandom(11, 1, 2, tc.ic, tc.hw, tc.hw)
			weight := tensor.NewRandom(12, 0.2, a.OutputCount, tc.ic, a.KernelH, a.KernelW)
			bias := tensor.NewRandom(13, 0.1, a.OutputCount)
			oh, ow, err := graph.ConvOutputSize(tc.hw, tc.hw, &a)
			if err != nil {
				t.Fatal(err)
			}
			want := tensor.New(2, a.OutputCount, oh, ow)
			ConvRef(want, src, weight, bias, &a)

			qc := PrepareQuantConv(weight, bias, &a, 0)
			got := tensor.NewWithLayout(tensor.NC4HW4, 2, a.OutputCount, oh, ow)
			ws := make([]float32, QuantConvWorkspaceFloats(&a, tc.ic, tc.hw, tc.hw))
			qc.Run(got, src.ToLayout(tensor.NC4HW4), pool, ws)
			budget := quantBudget(maxAbsOf(want))
			if d := tensor.MaxAbsDiff(want, got); d > budget {
				t.Fatalf("quant conv error %g > budget %g", d, budget)
			}
		})
	}
}

// TestQuantConvBatchIndependence: a batch-N run must be bitwise identical to
// N single-sample runs (the serving micro-batcher invariant), including with
// the dynamic per-sample scale.
func TestQuantConvBatchIndependence(t *testing.T) {
	pool := sched.New(3)
	defer pool.Close()
	a := graph.Conv2DAttrs{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, Group: 1, InputCount: 20, OutputCount: 24, ReLU: true}
	weight := tensor.NewRandom(3, 0.3, 24, 20, 1, 1)
	qc := PrepareQuantConv(weight, nil, &a, 0)
	const N, hw = 3, 7
	batch := tensor.NewRandom(5, 1.5, N, 20, hw, hw).ToLayout(tensor.NC4HW4)
	gotBatch := tensor.NewWithLayout(tensor.NC4HW4, N, 24, hw, hw)
	ws := make([]float32, QuantConvWorkspaceFloats(&a, 20, hw, hw))
	qc.Run(gotBatch, batch, pool, ws)
	for n := 0; n < N; n++ {
		single := tensor.NewWithLayout(tensor.NC4HW4, 1, 20, hw, hw)
		for c := 0; c < 20; c++ {
			for y := 0; y < hw; y++ {
				for x := 0; x < hw; x++ {
					single.Set(0, c, y, x, batch.At(n, c, y, x))
				}
			}
		}
		gotSingle := tensor.NewWithLayout(tensor.NC4HW4, 1, 24, hw, hw)
		qc.Run(gotSingle, single, pool, ws)
		for c := 0; c < 24; c++ {
			for y := 0; y < hw; y++ {
				for x := 0; x < hw; x++ {
					if gotSingle.At(0, c, y, x) != gotBatch.At(n, c, y, x) {
						t.Fatalf("sample %d (%d,%d,%d): single %v != batched %v",
							n, c, y, x, gotSingle.At(0, c, y, x), gotBatch.At(n, c, y, x))
					}
				}
			}
		}
	}
}

func TestQuantInnerProductMatchesRef(t *testing.T) {
	pool := sched.New(2)
	defer pool.Close()
	a := graph.InnerProductAttrs{OutputCount: 40, ReLU: true}
	src := tensor.NewRandom(31, 1, 3, 64)
	weight := tensor.NewRandom(32, 0.2, 40, 64)
	bias := tensor.NewRandom(33, 0.1, 40)
	want := tensor.New(3, 40)
	InnerProductRef(want, src, weight, bias, &a)

	ip := PrepareQuantInnerProduct(weight, bias, &a, 0)
	got := tensor.New(3, 40)
	ws := make([]float32, QuantInnerProductWorkspaceFloats(3, 64, 40))
	ip.Run(got, src, pool, ws)
	budget := quantBudget(maxAbsOf(want))
	if d := tensor.MaxAbsDiff(want, got); d > budget {
		t.Fatalf("quant FC error %g > budget %g", d, budget)
	}
}

// TestQuantInnerProductRoundsTwiceBitwise holds the int8 fully-connected
// layer to a scalar reference that rounds its requantize twice — the int32
// sum times the output scale, rounded to float32, plus the bias — on every
// target: a compiler that fuses the multiply into the add (FMADDS on arm64)
// would move the last bit of some outputs. The shapes run MulRows on the
// tiles (128 features, 40 rows) and off them (67 features).
func TestQuantInnerProductRoundsTwiceBitwise(t *testing.T) {
	pool := sched.New(2)
	defer pool.Close()
	for _, f := range []int{128, 67} {
		const batch, out = 40, 40
		a := graph.InnerProductAttrs{OutputCount: out, ReLU: true}
		src := tensor.NewRandom(41, 1, batch, f)
		weight := tensor.NewRandom(42, 0.2, out, f)
		bias := tensor.NewRandom(43, 0.1, out)
		ip := PrepareQuantInnerProduct(weight, bias, &a, 0)
		got := tensor.New(batch, out)
		ip.Run(got, src, pool, make([]float32, QuantInnerProductWorkspaceFloats(batch, f, out)))

		qw, wScales := quantizeWeightChannels(weight.Data(), out, f, matmul.HaveAVX2())
		bT := make([]int8, f*out)
		for o := 0; o < out; o++ {
			for i := 0; i < f; i++ {
				bT[i*out+o] = qw[o*f+i]
			}
		}
		for n := 0; n < batch; n++ {
			row := src.Data()[n*f : (n+1)*f]
			scale := actScaleFromMax(0, maxAbs32(row, false))
			qa := make([]int8, f)
			for i, v := range row {
				qa[i] = int8(quantizeAct(v, 1/scale, false))
			}
			acc := make([]int32, out)
			matmul.MulInt8Ref(acc, qa, bT, 1, f, out)
			for o := 0; o < out; o++ {
				want := float32(float32(acc[o])*(scale*wScales[o])) + bias.Data()[o]
				if want < 0 {
					want = 0
				}
				if g := got.Data()[n*out+o]; math.Float32bits(g) != math.Float32bits(want) {
					t.Fatalf("%d features: row %d output %d = %v (%#08x), twice-rounded reference %v (%#08x)", f, n, o, g, math.Float32bits(g), want, math.Float32bits(want))
				}
			}
		}
	}
}

// TestQuantCalibratedScaleUsed pins that a prepared kernel honours a
// calibrated input scale rather than deriving one per sample: feeding the
// same data scaled down must then produce different quantized outputs than
// re-deriving would.
func TestQuantCalibratedScaleUsed(t *testing.T) {
	pool := sched.New(1)
	defer pool.Close()
	a := graph.Conv2DAttrs{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, Group: 1, InputCount: 16, OutputCount: 16}
	weight := tensor.NewRandom(41, 0.3, 16, 16, 1, 1)
	src := tensor.NewRandom(42, 1, 1, 16, 6, 6).ToLayout(tensor.NC4HW4)

	dynamic := PrepareQuantConv(weight, nil, &a, 0)
	calibrated := PrepareQuantConv(weight, nil, &a, tensor.QuantScale(float64(maxAbs32(src.Data(), false))))
	outD := tensor.NewWithLayout(tensor.NC4HW4, 1, 16, 6, 6)
	outC := tensor.NewWithLayout(tensor.NC4HW4, 1, 16, 6, 6)
	ws := make([]float32, QuantConvWorkspaceFloats(&a, 16, 6, 6))
	dynamic.Run(outD, src, pool, ws)
	calibrated.Run(outC, src, pool, ws)
	// With the calibrated scale equal to the sample's max-abs scale, the two
	// paths must agree bitwise.
	for i, v := range outD.Data() {
		if outC.Data()[i] != v {
			t.Fatalf("element %d: calibrated %v != dynamic %v", i, outC.Data()[i], v)
		}
	}
}

// BenchmarkQuantVsFloatConv1x1 sets the int8 convolution beside the fp32
// kernel of the same shape on one lane: three square 1×1 layers, the 1×1
// layers that are hot in squeezenet-v1.1 at 224² (wide and shallow, so the
// quantize pass and the epilogue weigh most there), and one 3×3 tap case;
// the fp32 side is SlidingConv throughout.
func BenchmarkQuantVsFloatConv1x1(b *testing.B) {
	for _, bc := range []struct {
		name          string
		ic, oc, hw, k int
	}{
		{"c128", 128, 128, 28, 1}, {"c256", 256, 256, 28, 1}, {"c512", 512, 512, 14, 1},
		{"512to1000at13", 512, 1000, 13, 1}, {"128to32at55", 128, 32, 55, 1}, {"16to64at55", 16, 64, 55, 1},
		{"3x3c64at28", 64, 64, 28, 3},
	} {
		a := graph.Conv2DAttrs{KernelH: bc.k, KernelW: bc.k, StrideH: 1, StrideW: 1, PadH: bc.k / 2, PadW: bc.k / 2,
			Group: 1, InputCount: bc.ic, OutputCount: bc.oc, ReLU: true}
		w := tensor.NewRandom(2, 0.2, bc.oc, bc.ic, bc.k, bc.k)
		src := tensor.NewWithLayout(tensor.NC4HW4, 1, bc.ic, bc.hw, bc.hw)
		tensor.FillRandom(src, 3, 1)
		dst := tensor.NewWithLayout(tensor.NC4HW4, 1, bc.oc, bc.hw, bc.hw)
		pool := testPool(b, 1)
		b.Run("int8/"+bc.name, func(b *testing.B) {
			qc := PrepareQuantConv(w, nil, &a, 0)
			ws := make([]float32, QuantConvWorkspaceFloats(&a, bc.ic, bc.hw, bc.hw))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qc.Run(dst, src, pool, ws)
			}
		})
		b.Run("fp32/"+bc.name, func(b *testing.B) {
			c := PrepareSliding(w, nil, &a)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Run(dst, src, pool)
			}
		})
	}
}

// BenchmarkQuantVsFloatConv3x3 sets the int8 convolution beside the fp32
// scheme the Equation 2–3 heuristic picks for the same 3×3 layer, at every
// int8 and fp32 level the host has, on one lane: squeezenet's fire2 and
// fire9 expand3x3 (Winograd F6 and F4), its 3-channel stride-2 conv1
// (sliding) and vgg-16's 3-channel conv1_1 (Winograd F6). These are the
// contested picks of core.Int8ConvSupported; GMAC/s counts direct
// multiply-adds (9·ic·oc per output pixel) whatever the route.
func BenchmarkQuantVsFloatConv3x3(b *testing.B) {
	for _, bc := range []struct {
		name                    string
		ic, oc, hw, stride, pad int
	}{
		{"fire2-16to64at55", 16, 64, 55, 1, 1}, {"fire9-64to256at13", 64, 256, 13, 1, 1},
		{"conv1-3to64at224s2", 3, 64, 224, 2, 0}, {"vgg-3to64at224", 3, 64, 224, 1, 1},
	} {
		a := graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: bc.stride, StrideW: bc.stride, PadH: bc.pad, PadW: bc.pad,
			Group: 1, InputCount: bc.ic, OutputCount: bc.oc, ReLU: true}
		w := tensor.NewRandom(2, 0.2, bc.oc, bc.ic, 3, 3)
		src := tensor.NewWithLayout(tensor.NC4HW4, 1, bc.ic, bc.hw, bc.hw)
		tensor.FillRandom(src, 3, 1)
		oh, ow, _ := graph.ConvOutputSize(bc.hw, bc.hw, &a)
		dst := tensor.NewWithLayout(tensor.NC4HW4, 1, bc.oc, oh, ow)
		gmac := float64(oh*ow) * float64(9*bc.ic*bc.oc) / 1e9
		pool := testPool(b, 1)
		run := func(b *testing.B, f func()) {
			for i := 0; i < b.N; i++ {
				f()
			}
			b.ReportMetric(gmac*float64(b.N)/b.Elapsed().Seconds(), "GMAC/s")
		}
		quant := quantPaths(PrepareQuantConv(w, nil, &a, 0.05))
		ws := make([]float32, QuantConvWorkspaceFloats(&a, bc.ic, bc.hw, bc.hw))
		for _, isa := range matmul.Int8ISAs() {
			b.Run("int8-"+isa+"/"+bc.name, func(b *testing.B) { run(b, func() { quant[isa].Run(dst, src, pool, ws) }) })
		}
		dec := core.SelectConvScheme(&a, src.Shape())
		for _, isa := range matmul.ISAs() {
			var f func()
			if dec.Scheme == core.SchemeWinograd {
				wc, err := PrepareWinograd(w, nil, &a, dec.TileH, dec.TileW)
				if err != nil {
					b.Fatal(err)
				}
				for i, p := range wc.packedW {
					wc.packedW[i] = p.WithISA(isa)
				}
				wc.simd = isa != "portable"
				wws := make([]float32, wc.WorkspaceSize())
				f = func() { wc.Run(dst, src, pool, wws) }
			} else {
				sc := PrepareSliding(w, nil, &a)
				sc.packed = sc.packed.WithISA(isa)
				f = func() { sc.Run(dst, src, pool) }
			}
			b.Run(fmt.Sprintf("fp32-%s-%v/%s", isa, dec.Scheme, bc.name), func(b *testing.B) { run(b, f) })
		}
	}
}
