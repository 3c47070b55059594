//go:build linux

package kernels

import (
	"fmt"
	"math"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// viewSentinel fills the floats before a guarded view; a kernel that
// writes below its view changes one.
var viewSentinel = math.Float32frombits(0x7fa5a5a5)

// TestKernelsWriteOnlyTheirView runs every convolution route squeezenet-v1.1
// and inception-v3 take — fp32 1×1, Winograd 3×3 and sliding k×k (1×7 and
// 3×3/s2), int8 1×1 and 3×3 taps at each int8 level the host has (the amx
// grid and the VNNI tiles among them) — and the other CPU convolution routes
// (depthwise 3×3, and im2col's NCHW product packed into its output), each
// run twice on one prepared kernel, and both pool kernels
// (poolMax3x3s2NC4, and the row kernels max and average) into an NC4HW4
// view as the producers of an in-place concat write into its buffer: the
// view ends where an unmapped page begins and starts after sentinel floats,
// so a write past it faults and one before it shows; the source ends at an
// unmapped page too, so a read past it faults. Batch-3 1×1s whose last
// four-pixel block holds 1, 2, 3 or 4 pixels check that SlidingConv's one
// run per sample stops at the last sample's last pixel. The view must also
// hold the bits of the same kernel run into a tensor of its own, on one lane
// and on three.
func TestKernelsWriteOnlyTheirView(t *testing.T) {
	const guard = 64
	type kernelCase struct {
		name string
		src  *tensor.Tensor
		out  []int // [n, oc, oh, ow], oc a multiple of 4 as an in-place concat's inputs are
		run  func(dst, src *tensor.Tensor, p *sched.Pool)
	}
	conv := func(ic, oc, kh, kw, s, ph, pw int) *graph.Conv2DAttrs {
		return &graph.Conv2DAttrs{KernelH: kh, KernelW: kw, StrideH: s, StrideW: s, PadH: ph, PadW: pw,
			Group: 1, InputCount: ic, OutputCount: oc, ReLU: true}
	}
	weights := func(seed uint64, a *graph.Conv2DAttrs) (*tensor.Tensor, *tensor.Tensor) {
		return tensor.NewRandom(seed, 0.2, a.OutputCount, a.InputCount, a.KernelH, a.KernelW), tensor.NewRandom(seed+1, 0.1, a.OutputCount)
	}
	source := func(seed uint64, n, c, h, w int) *tensor.Tensor {
		shape := []int{n, c, h, w}
		src := tensor.WrapBuffer(guardedFloats(t, tensor.PhysicalLen(tensor.NC4HW4, shape)), tensor.NC4HW4, shape...)
		tensor.FillRandom(src, seed, 1)
		return src
	}
	var cases []kernelCase

	a1 := conv(16, 64, 1, 1, 1, 0, 0) // a fire module's expand1x1
	w1, b1 := weights(1, a1)
	c1 := PrepareSliding(w1, b1, a1)
	cases = append(cases, kernelCase{"conv1x1", source(2, 1, 16, 27, 27), []int{1, 64, 27, 27},
		func(dst, src *tensor.Tensor, p *sched.Pool) { c1.Share().Run(dst, src, p) }})
	for _, hw := range [][2]int{{5, 5}, {3, 2}, {7, 1}, {4, 4}} {
		cases = append(cases, kernelCase{fmt.Sprintf("conv1x1/batch3/%dx%d", hw[0], hw[1]), source(2, 3, 16, hw[0], hw[1]), []int{3, 64, hw[0], hw[1]},
			func(dst, src *tensor.Tensor, p *sched.Pool) { c1.Share().Run(dst, src, p) }})
	}

	a3 := conv(16, 64, 3, 3, 1, 1, 1) // its expand3x3
	w3, b3 := weights(3, a3)
	wc, err := PrepareWinograd(w3, b3, a3, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, kernelCase{"winograd3x3", source(4, 1, 16, 27, 27), []int{1, 64, 27, 27},
		func(dst, src *tensor.Tensor, p *sched.Pool) {
			w := wc.Share()
			w.Run(dst, src, p, make([]float32, w.WorkspaceSize()*p.Lanes()))
		}})

	for _, s := range []struct {
		name string
		a    *graph.Conv2DAttrs
		h, w int
	}{
		{"sliding1x7", conv(32, 32, 1, 7, 1, 0, 3), 17, 17},   // inception-B
		{"sliding3x3s2", conv(32, 64, 3, 3, 2, 0, 0), 17, 17}, // a reduction block
	} {
		w, b := weights(5, s.a)
		sc := PrepareSliding(w, b, s.a)
		oh, ow := (s.h+2*s.a.PadH-s.a.KernelH)/s.a.StrideH+1, (s.w+2*s.a.PadW-s.a.KernelW)/s.a.StrideW+1
		cases = append(cases, kernelCase{s.name, source(6, 1, s.a.InputCount, s.h, s.w), []int{1, s.a.OutputCount, oh, ow},
			func(dst, src *tensor.Tensor, p *sched.Pool) { sc.Share().Run(dst, src, p) }})
	}

	ad := conv(64, 64, 3, 3, 1, 1, 1) // a depthwise 3×3, interior and border runs
	ad.Group = 64
	wd, bd := tensor.NewRandom(11, 0.2, 64, 1, 3, 3), tensor.NewRandom(12, 0.1, 64)
	dc := PrepareDepthwise(wd, bd, ad)
	cases = append(cases, kernelCase{"depthwise3x3", source(13, 1, 64, 15, 15), []int{1, 64, 15, 15},
		func(dst, src *tensor.Tensor, p *sched.Pool) { dc.Run(dst, src, p) }})

	ag := conv(32, 32, 3, 3, 1, 1, 1) // a grouped conv, the im2col fallback
	ag.Group = 4
	wg, bg := tensor.NewRandom(14, 0.2, 32, 8, 3, 3), tensor.NewRandom(15, 0.1, 32)
	ic := PrepareIm2col(wg, bg, ag)
	cases = append(cases, kernelCase{"im2col", source(16, 1, 32, 11, 11), []int{1, 32, 11, 11},
		func(dst, src *tensor.Tensor, p *sched.Pool) {
			// The CPU backend stages im2col through NCHW and packs the
			// product into its output.
			in, out := tensor.New(src.Shape()...), tensor.New(dst.Shape()...)
			in.CopyFrom(src)
			ic.Run(out, in, p, make([]float32, Im2colWorkspaceFloats(ag, 32, 32, 11, 11)))
			dst.CopyFrom(out)
		}})

	for _, isa := range int8Levels(t) {
		for _, a := range []*graph.Conv2DAttrs{conv(64, 64, 1, 1, 1, 0, 0), conv(64, 64, 3, 3, 1, 1, 1)} {
			w, b := weights(7, a)
			qc := quantPaths(PrepareQuantConv(w, b, a, 0))[isa]
			cases = append(cases, kernelCase{fmt.Sprintf("int8-%dx%d/%s", a.KernelH, a.KernelW, isa), source(8, 1, 64, 13, 13), []int{1, 64, 13, 13},
				func(dst, src *tensor.Tensor, p *sched.Pool) {
					q := qc.Share()
					q.Run(dst, src, p, make([]float32, QuantConvWorkspaceFloats(a, 64, 13, 13)))
				}})
		}
	}

	for _, pc := range []struct {
		name   string
		a      graph.PoolAttrs
		h, out int
	}{
		{"maxpool3x3s2", graph.PoolAttrs{Type: graph.MaxPool, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2}, 27, 13},
		{"maxpool3x3s2p1", graph.PoolAttrs{Type: graph.MaxPool, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 27, 14},
		{"avgpool3x3s1p1", graph.PoolAttrs{Type: graph.AvgPool, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 17, 17},
	} {
		a := pc.a
		cases = append(cases, kernelCase{pc.name, source(9, 1, 64, pc.h, pc.h), []int{1, 64, pc.out, pc.out},
			func(dst, src *tensor.Tensor, p *sched.Pool) { NewPoolOp(dst, src, &a).Run(p) }})
	}

	for _, kc := range cases {
		for _, lanes := range []int{1, 3} {
			p := testPool(t, lanes)
			want := nanNC4(kc.out...)
			kc.run(want, kc.src, p)
			n := tensor.PhysicalLen(tensor.NC4HW4, kc.out)
			buf := guardedFloats(t, guard+n)
			for i := range buf {
				buf[i] = viewSentinel
			}
			view := tensor.WrapBuffer(buf[guard:], tensor.NC4HW4, kc.out...)
			kc.run(view, kc.src, p)
			for i, v := range buf[:guard] {
				if math.Float32bits(v) != math.Float32bits(viewSentinel) {
					t.Fatalf("%s, %d lanes: wrote %d floats before its view", kc.name, lanes, guard-i)
				}
			}
			if d := exactBitDiff(view.Data(), want.Data()); d >= 0 {
				t.Fatalf("%s, %d lanes: view element %d = %#08x, own tensor %#08x", kc.name, lanes, d,
					math.Float32bits(view.Data()[d]), math.Float32bits(want.Data()[d]))
			}
		}
	}
}
