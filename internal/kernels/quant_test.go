package kernels

import (
	"testing"

	"mnn/internal/graph"
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
			ws := make([]float32, QuantConvWorkspaceFloats(tc.ic, tc.hw, tc.hw))
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
	ws := make([]float32, QuantConvWorkspaceFloats(20, hw, hw))
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
	ws := make([]float32, QuantConvWorkspaceFloats(16, 6, 6))
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
// quantize pass and the epilogue weigh most there), and one 3×3 tap case
// against SlidingConv.
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
			ws := make([]float32, QuantConvWorkspaceFloats(bc.ic, bc.hw, bc.hw))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qc.Run(dst, src, pool, ws)
			}
		})
		b.Run("fp32/"+bc.name, func(b *testing.B) {
			var run func()
			if bc.k == 1 {
				c := PrepareConv1x1(w, nil, &a)
				run = func() { c.Run(dst, src, pool) }
			} else {
				c := PrepareSliding(w, nil, &a)
				run = func() { c.Run(dst, src, pool) }
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
