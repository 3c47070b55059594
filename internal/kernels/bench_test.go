package kernels

import (
	"fmt"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// Kernel micro-benchmarks: per-scheme convolution throughput on a
// representative mid-network layer, for tuning work on the kernels
// themselves (the table/figure harness lives at the repository root).

func benchConvSetup(ic, oc, size, k int) (*tensor.Tensor, *tensor.Tensor, *tensor.Tensor, *graph.Conv2DAttrs) {
	a := &graph.Conv2DAttrs{KernelH: k, KernelW: k, StrideH: 1, StrideW: 1,
		PadH: k / 2, PadW: k / 2, Group: 1, InputCount: ic, OutputCount: oc}
	src := tensor.NewWithLayout(tensor.NC4HW4, 1, ic, size, size)
	tensor.FillRandom(src, 1, 1)
	weight := tensor.NewRandom(2, 0.2, oc, ic, k, k)
	bias := tensor.NewRandom(3, 0.1, oc)
	return src, weight, bias, a
}

// conv3x3Shape is one 3×3 convolution of the model zoo: ic → oc on a size²
// input. The benchmarks below report GFLOP/s of direct multiplies
// (2·9·ic·oc per output pixel) whatever the scheme, on one lane, so the
// schemes compare on one scale and a kernel change can be sized without the
// 16 s repository benchmark.
type conv3x3Shape struct {
	name                      string
	ic, oc, size, stride, pad int
}

var conv3x3Shapes = []conv3x3Shape{
	{"mobilenet-stem/3x32x224s2", 3, 32, 224, 2, 1},
	{"squeezenet-conv1/3x64x224s2", 3, 64, 224, 2, 0},
	{"squeezenet-fire2/16x64x55", 16, 64, 55, 1, 1},
	{"squeezenet-fire4/32x128x27", 32, 128, 27, 1, 1},
	{"squeezenet-fire6/48x192x13", 48, 192, 13, 1, 1},
	{"squeezenet-fire8/64x256x13", 64, 256, 13, 1, 1},
	{"resnet18-layer1/64x64x56", 64, 64, 56, 1, 1},
	{"resnet18-layer3/256x256x14", 256, 256, 14, 1, 1},
	{"resnet18-layer4/512x512x7", 512, 512, 7, 1, 1},
}

// setup returns the shape's operands and the GFLOP of one run.
func (s conv3x3Shape) setup() (src, dst, weight, bias *tensor.Tensor, a *graph.Conv2DAttrs, gflop float64) {
	src, weight, bias, a = benchConvSetup(s.ic, s.oc, s.size, 3)
	a.StrideH, a.StrideW, a.PadH, a.PadW, a.ReLU = s.stride, s.stride, s.pad, s.pad, true
	out := (s.size+2*s.pad-3)/s.stride + 1
	dst = tensor.NewWithLayout(tensor.NC4HW4, 1, s.oc, out, out)
	return src, dst, weight, bias, a, 2 * 9 * float64(out*out) * float64(s.ic) * float64(s.oc) / 1e9
}

func BenchmarkConvSliding3x3(b *testing.B) {
	for _, s := range conv3x3Shapes {
		b.Run(s.name, func(b *testing.B) {
			src, dst, w, bias, a, gflop := s.setup()
			sc := PrepareSliding(w, bias, a)
			pool := testPool(b, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.Run(dst, src, pool)
			}
			b.ReportMetric(gflop*float64(b.N)/b.Elapsed().Seconds(), "GFLOP/s")
		})
	}
}

func BenchmarkConvWinograd3x3(b *testing.B) {
	for _, tile := range []int{2, 4, 6} {
		for _, s := range conv3x3Shapes {
			if s.stride != 1 {
				continue
			}
			b.Run(fmt.Sprintf("F%d/%s", tile, s.name), func(b *testing.B) {
				src, dst, w, bias, a, gflop := s.setup()
				wc, err := PrepareWinograd(w, bias, a, tile, tile)
				if err != nil {
					b.Fatal(err)
				}
				ws := make([]float32, wc.WorkspaceSize())
				pool := testPool(b, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					wc.Run(dst, src, pool, ws)
				}
				b.ReportMetric(gflop*float64(b.N)/b.Elapsed().Seconds(), "GFLOP/s")
			})
		}
	}
}

// BenchmarkConv1x1 reports the pointwise kernel at mobilenet-v1's nine
// shapes (size² pixels × ic → oc) in GFLOP/s on one lane, so a kernel change
// can be sized without the 16 s repository benchmark.
func BenchmarkConv1x1(b *testing.B) {
	for _, s := range []struct{ size, ic, oc int }{
		{112, 32, 64}, {56, 64, 128}, {56, 128, 128}, {28, 128, 256}, {28, 256, 256},
		{14, 256, 512}, {14, 512, 512}, {7, 512, 1024}, {7, 1024, 1024},
	} {
		b.Run(fmt.Sprintf("%dx%dx%dx%d", s.size, s.size, s.ic, s.oc), func(b *testing.B) {
			src, w, bias, a := benchConvSetup(s.ic, s.oc, s.size, 1)
			a.ReLU = true
			c := PrepareConv1x1(w, bias, a)
			dst := tensor.NewWithLayout(tensor.NC4HW4, 1, s.oc, s.size, s.size)
			pool := testPool(b, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Run(dst, src, pool)
			}
			b.ReportMetric(2*float64(s.size*s.size)*float64(s.ic)*float64(s.oc)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkConvDepthwise3x3 reports the depthwise kernel at mobilenet-v1's
// shapes (size² input × c channels, stride 1 and 2) in GFLOP/s on one lane.
func BenchmarkConvDepthwise3x3(b *testing.B) {
	for _, s := range []struct{ size, c, stride int }{
		{112, 32, 1}, {112, 64, 2}, {56, 128, 1}, {56, 128, 2}, {28, 256, 1}, {28, 256, 2},
		{14, 512, 1}, {14, 512, 2}, {7, 1024, 1},
	} {
		b.Run(fmt.Sprintf("%dx%dx%d/s%d", s.size, s.size, s.c, s.stride), func(b *testing.B) {
			src := tensor.NewWithLayout(tensor.NC4HW4, 1, s.c, s.size, s.size)
			tensor.FillRandom(src, 1, 1)
			a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: s.stride, StrideW: s.stride,
				PadH: 1, PadW: 1, Group: s.c, InputCount: s.c, OutputCount: s.c, ReLU: true}
			dc := PrepareDepthwise(tensor.NewRandom(2, 0.2, s.c, 1, 3, 3), tensor.NewRandom(3, 0.1, s.c), a)
			out := tensor.UpDiv(s.size, s.stride)
			dst := tensor.NewWithLayout(tensor.NC4HW4, 1, s.c, out, out)
			pool := testPool(b, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dc.Run(dst, src, pool)
			}
			b.ReportMetric(2*9*float64(out*out)*float64(s.c)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func BenchmarkConvIm2col3x3(b *testing.B) {
	a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
		PadH: 1, PadW: 1, Group: 1, InputCount: 64, OutputCount: 64}
	src := tensor.NewRandom(1, 1, 1, 64, 56, 56)
	w := tensor.NewRandom(2, 0.2, 64, 64, 3, 3)
	c := PrepareIm2col(w, nil, a)
	ws := make([]float32, c.WorkspaceSize(56, 56))
	dst := tensor.New(1, 64, 56, 56)
	pool := testPool(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(dst, src, pool, ws)
	}
}

func BenchmarkConvAsymmetric1x7Winograd(b *testing.B) {
	a := &graph.Conv2DAttrs{KernelH: 1, KernelW: 7, StrideH: 1, StrideW: 1,
		PadH: 0, PadW: 3, Group: 1, InputCount: 128, OutputCount: 128}
	src := tensor.NewWithLayout(tensor.NC4HW4, 1, 128, 17, 17)
	tensor.FillRandom(src, 1, 1)
	w := tensor.NewRandom(2, 0.2, 128, 128, 1, 7)
	wc, err := PrepareWinograd(w, nil, a, 1, 4)
	if err != nil {
		b.Fatal(err)
	}
	ws := make([]float32, wc.WorkspaceSize()*4)
	dst := tensor.NewWithLayout(tensor.NC4HW4, 1, 128, 17, 17)
	pool := testPool(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wc.Run(dst, src, pool, ws)
	}
}

// BenchmarkPoolMax3x3s2 runs squeezenet-v1.1's three max pools (3×3, stride
// 2, no padding) on one lane. GB/s counts source bytes, so it reads directly
// against the host's copy bandwidth (benchmark row host.copy_gbps).
func BenchmarkPoolMax3x3s2(b *testing.B) {
	for _, s := range []struct{ c, size int }{{64, 111}, {128, 55}, {256, 27}} {
		b.Run(fmt.Sprintf("%dx%dx%d", s.size, s.size, s.c), func(b *testing.B) {
			out := (s.size-3)/2 + 1
			benchPool(b, 1, s.c, s.size, out, &graph.PoolAttrs{Type: graph.MaxPool, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2})
		})
	}
}

// BenchmarkPoolGlobal runs the global average pools of mobilenet-v1 (1024
// channels at 7², four lanes) and of squeezenet-v1.1's pool10 (1000 at 13²,
// one lane), in source GB/s like BenchmarkPoolMax3x3s2.
func BenchmarkPoolGlobal(b *testing.B) {
	for _, s := range []struct{ c, size, lanes int }{{1024, 7, 4}, {1000, 13, 1}} {
		b.Run(fmt.Sprintf("%dx%dx%d/lanes%d", s.size, s.size, s.c, s.lanes), func(b *testing.B) {
			benchPool(b, s.lanes, s.c, s.size, 1, &graph.PoolAttrs{Type: graph.AvgPool, Global: true})
		})
	}
}

// benchPool times a pool of c channels from size² to out² on lanes lanes.
func benchPool(b *testing.B, lanes, c, size, out int, a *graph.PoolAttrs) {
	src := tensor.NewWithLayout(tensor.NC4HW4, 1, c, size, size)
	tensor.FillRandom(src, 1, 1)
	op := NewPoolOp(tensor.NewWithLayout(tensor.NC4HW4, 1, c, out, out), src, a)
	pool := testPool(b, lanes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Run(pool)
	}
	b.ReportMetric(float64(4*len(src.Data()))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
}

// BenchmarkGELU runs the transformer's feed-forward activation at its
// longest sequence, [1,16,128], on one lane; Melem/s beside ns/op.
func BenchmarkGELU(b *testing.B) {
	src := tensor.NewRandom(1, 3, 1, 16, 128)
	dst := tensor.New(1, 16, 128)
	op := NewGELUOp(dst, src)
	pool := testPool(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Run(pool)
	}
	b.ReportMetric(float64(len(src.Data()))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
}

// BenchmarkSoftmaxLastAxis runs the attention softmax at sequence lengths 16
// and the serving bucket's 10 (rows = heads·length), and a 1000-class head.
func BenchmarkSoftmaxLastAxis(b *testing.B) {
	for _, s := range []struct{ rows, d1 int }{{64, 16}, {28, 10}, {1, 1000}} {
		b.Run(fmt.Sprintf("%dx%d", s.rows, s.d1), func(b *testing.B) {
			src := tensor.NewRandom(1, 4, s.rows, s.d1)
			op := NewSoftmaxOp(tensor.New(s.rows, s.d1), src)
			pool := testPool(b, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Run(pool)
			}
		})
	}
}

// BenchmarkAttention runs the transformer's attention (d 32, 4 heads of 8)
// at the lengths the benchmark sweeps, on one lane: Fused is the
// AttentionOp a session runs, Unfused the QK MatMul, softmax and AV MatMul
// it replaces, as they still run for a graph that reads the scores.
func BenchmarkAttention(b *testing.B) {
	const d, h = 32, 4
	for _, l := range []int{16, 8, 4} {
		q, k, v := tensor.NewRandom(1, 1, 1, l, d), tensor.NewRandom(2, 1, 1, l, d), tensor.NewRandom(3, 1, 1, l, d)
		scores, probs := tensor.New(1, h*l, l), tensor.New(1, h*l, l)
		fused := NewAttentionOp(tensor.New(1, l, d), q, k, v, &graph.AttentionAttrs{Heads: h, QKScale: 0.35},
			make([]float32, AttentionWorkspaceFloats(l, d/h, 1)), 1)
		unfused := []interface{ Run(*sched.Pool) }{
			NewMatMulBatchedOp(scores, q, k, &graph.MatMulAttrs{Heads: h, TransposeB: true, Scale: 0.35}),
			NewSoftmaxOp(probs, scores),
			NewMatMulBatchedOp(tensor.New(1, l, d), probs, v, &graph.MatMulAttrs{Heads: h}),
		}
		for _, c := range []struct {
			name string
			ops  []interface{ Run(*sched.Pool) }
		}{{"Fused", []interface{ Run(*sched.Pool) }{fused}}, {"Unfused", unfused}} {
			b.Run(fmt.Sprintf("%s/L%d", c.name, l), func(b *testing.B) {
				pool := testPool(b, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, op := range c.ops {
						op.Run(pool)
					}
				}
			})
		}
	}
}

// BenchmarkMatMulWeight runs the transformer's weight-form MatMul, bias
// included, on one lane at the rows its sweep gives one sequence (16, 8, 4)
// and its four weight shapes: the Q/K/V/projection GEMMs (32×32), the two
// feed-forward GEMMs (32×128, 128×32) and the classifier (32×10); then 48
// columns, a pair beside a lone panel, and mobilenet-v1's fc7 at batch 1
// (1024 → 1000), its one row-major GEMM.
func BenchmarkMatMulWeight(b *testing.B) {
	type shape struct{ m, k, n int }
	var shapes []shape
	for _, m := range []int{16, 8, 4} {
		for _, kn := range [][2]int{{32, 32}, {32, 128}, {128, 32}, {32, 10}, {32, 48}} {
			shapes = append(shapes, shape{m, kn[0], kn[1]})
		}
	}
	shapes = append(shapes, shape{1, 1024, 1000})
	for _, s := range shapes {
		b.Run(fmt.Sprintf("m%d/k%dn%d", s.m, s.k, s.n), func(b *testing.B) {
			src := tensor.NewRandom(1, 1, 1, s.m, s.k)
			w, bias := tensor.NewRandom(2, 0.2, s.k, s.n), tensor.NewRandom(3, 0.1, s.n)
			op := NewMatMulWeightOp(tensor.New(1, s.m, s.n), src, nil, w, bias, &graph.MatMulAttrs{}, matmul.PackB(w.Data(), s.k, s.n))
			pool := testPool(b, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Run(pool)
			}
			b.ReportMetric(2*float64(s.m*s.k*s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkLayerNorm runs the transformer's LayerNorm (width 32) at its
// longest and shortest sequence on one lane.
func BenchmarkLayerNorm(b *testing.B) {
	for _, rows := range []int{16, 4} {
		b.Run(fmt.Sprintf("%dx32", rows), func(b *testing.B) {
			src := tensor.NewRandom(1, 1, 1, rows, 32)
			gamma, beta := tensor.NewRandom(2, 1, 32), tensor.NewRandom(3, 0.1, 32)
			op := NewLayerNormOp(tensor.New(1, rows, 32), src, gamma, beta, &graph.LayerNormAttrs{Eps: 1e-5})
			pool := testPool(b, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Run(pool)
			}
		})
	}
}
