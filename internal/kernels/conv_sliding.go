package kernels

import (
	"math"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// SlidingConv is the prepared state of the sliding-window convolution on
// NC4HW4 tensors: direct convolution as the GEMM micro-kernel sees it. The
// weight is packed once as a [kh·kw·ic][oc] matrix in 64-byte panels, rows
// in (ky, kx, c) order, and matmul.PackedB.MulTapsNC4Into sums each run of
// adjacent output pixels over the kernel taps that fall inside the image,
// reading the NC4HW4 source in place and writing bias + activation fused —
// no im2col matrix, no workspace. A 1×1 convolution is the one-tap case of
// the same kernel (Conv1x1).
type SlidingConv struct {
	attrs  graph.Conv2DAttrs
	ic, oc int
	packed *matmul.PackedB // [kh·kw·ic][oc] weight in 64-byte panels
	bias   []float32       // oc rounded up to whole panels
	lo, hi float32         // activation clamp

	// rs is the bound per-run geometry. Prepared kernels are owned by one
	// session and sessions run exclusively, so a single slot suffices; it
	// lets RunChunk execute on pool workers without any per-run closure.
	rs slidingRun
}

type slidingRun struct {
	tapGeom
	s, d               []float32
	srcBatch, dstBatch int // floats between samples
}

// tapGeom is the geometry the tap kernels' drivers (SlidingConv, QuantConv)
// cut a convolution into runs by. One element of the source is a float or,
// quantized, a byte, so the pack strides and tap offsets serve both.
type tapGeom struct {
	H, W, OH, OW     int
	srcPack, dstPack int // elements between channel packs: H·W·4, OH·OW·4
	sh, sw, dh, dw   int
	ph, pw           int
	xr               int // output columns from xr on lose kx taps to the right image edge
}

func newTapGeom(a *graph.Conv2DAttrs, H, W, OH, OW int) tapGeom {
	ph, pw := graph.ConvPadding(H, W, a)
	g := tapGeom{
		H: H, W: W, OH: OH, OW: OW,
		srcPack: H * W * 4, dstPack: OH * OW * 4,
		sh: strideOr1(a.StrideH), sw: strideOr1(a.StrideW),
		dh: dilOr1(a.DilationH), dw: dilOr1(a.DilationW),
		ph: ph, pw: pw,
	}
	// Column x has its last kx tap inside the image while x·sw − pw + (kw−1)·dw ≤ W−1.
	if last := W - 1 - (a.KernelW-1)*g.dw + pw; last >= 0 {
		g.xr = min(OW, last/g.sw+1)
	}
	return g
}

// runAt returns the run of output row oy of a kh×kw convolution that starts
// at pixel x and ends before pixel x1 — its end and, appended to taps, its
// tap list: the pixels whose windows cross no vertical image edge share one
// tap list and are one run; each of the few pixels left and right of them is
// a run of its own with the taps it has. Only taps inside the image are
// listed, in ascending (ky, kx) order; tap (ky, kx) starts at packed weight
// row (ky·kw + kx)·tapRows.
func (g *tapGeom) runAt(taps []matmul.Tap, oy, x, x1, kh, kw, tapRows int) (int, []matmul.Tap) {
	iy0, ix0 := oy*g.sh-g.ph, x*g.sw-g.pw
	ky0, ky1 := tapRange(iy0, g.dh, kh, g.H)
	kx0, kx1 := tapRange(ix0, g.dw, kw, g.W)
	end := x + 1
	if kx1-kx0 == kw {
		end = min(max(end, g.xr), x1) // the columns with every kx tap are one run
	}
	for ky := ky0; ky < ky1; ky++ {
		for kx := kx0; kx < kx1; kx++ {
			taps = append(taps, matmul.Tap{A: ((iy0+ky*g.dh)*g.W + ix0 + kx*g.dw) * 4, B: (ky*kw + kx) * tapRows})
		}
	}
	return end, taps
}

// PrepareSliding packs weights for the sliding-window kernel.
// weight is [oc, ic, kh, kw] (group must be 1; use PrepareDepthwise or the
// im2col path for grouped convolution). bias may be nil.
func PrepareSliding(weight, bias *tensor.Tensor, a *graph.Conv2DAttrs) *SlidingConv {
	oc, ic := weight.Dim(0), weight.Dim(1)
	taps := a.KernelH * a.KernelW
	sc := &SlidingConv{attrs: *a, ic: ic, oc: oc}
	wT := make([]float32, taps*ic*oc)
	w := weight.Data()
	for o := 0; o < oc; o++ {
		for i := 0; i < ic; i++ {
			for t := 0; t < taps; t++ {
				wT[(t*ic+i)*oc+o] = w[(o*ic+i)*taps+t]
			}
		}
	}
	sc.packed = matmul.PackB(wT, taps*ic, oc)
	sc.bias = make([]float32, tensor.UpDiv(oc, matmul.PanelWidth)*matmul.PanelWidth)
	if bias != nil {
		copy(sc.bias, bias.Data())
	}
	sc.lo, sc.hi = clampBounds(a.ReLU, a.ReLU6)
	return sc
}

// Run executes the convolution on the pool. src and dst must be NC4HW4.
// Steady-state calls are allocation-free.
func (sc *SlidingConv) Run(dst, src *tensor.Tensor, p *sched.Pool) {
	N, H, W := src.Batch(), src.Height(), src.Width()
	OH, OW := dst.Height(), dst.Width()
	sc.rs = slidingRun{
		tapGeom: newTapGeom(&sc.attrs, H, W, OH, OW),
		s:       src.Data(), d: dst.Data(),
		srcBatch: tensor.UpDiv(sc.ic, 4) * H * W * 4, dstBatch: tensor.UpDiv(sc.oc, 4) * OH * OW * 4,
	}
	// MulTapsNC4Into computes every pixel from that pixel's window alone, so
	// neither the lane count nor the batch size can change a bit of the result.
	total := N * OH
	p.Run(total, sched.Chunk(total, p.Lanes(), elemChunksPerLane), sc)
}

// RunChunk implements sched.Task over (sample, output row) items, each row
// cut into MulTapsNC4Into runs by runAt.
func (sc *SlidingConv) RunChunk(worker, start, end int) {
	r := &sc.rs
	var buf [64]matmul.Tap // a run's tap list; only a kernel past 8×8 spills to the heap
	for item := start; item < end; item++ {
		n, oy := item/r.OH, item%r.OH
		src := r.s[n*r.srcBatch : (n+1)*r.srcBatch]
		dst := r.d[n*r.dstBatch+oy*r.OW*4 : (n+1)*r.dstBatch]
		for x := 0; x < r.OW; {
			x1, taps := r.runAt(buf[:0], oy, x, r.OW, sc.attrs.KernelH, sc.attrs.KernelW, sc.ic)
			sc.packed.MulTapsNC4Into(dst[x*4:], r.dstPack, src, r.srcPack, r.sw*4, x1-x, taps, sc.ic, sc.bias, sc.lo, sc.hi)
			x = x1
		}
	}
}

// tapRange returns the taps k0 ≤ k < k1 of a k-tap window starting at i0
// with dilation d whose positions i0 + k·d lie in [0, size).
func tapRange(i0, d, k, size int) (k0, k1 int) {
	if i0 < 0 {
		k0 = (-i0 + d - 1) / d
	}
	if last := size - 1 - i0; last >= 0 {
		k1 = last/d + 1
	}
	return min(k0, k), max(min(k0, k), min(k1, k))
}

func relu(v float32) float32 {
	if v < 0 {
		return 0
	}
	return v
}

func relu6(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 6 {
		return 6
	}
	return v
}

// clampBounds is the fused activation as the interval SIMD kernels clamp
// to: `if v < lo { v = lo }; if v > hi { v = hi }` is relu6, relu or the
// identity bit for bit (NaN stays NaN, -0 stays -0).
func clampBounds(relu, relu6 bool) (lo, hi float32) {
	lo, hi = float32(math.Inf(-1)), float32(math.Inf(1))
	if relu || relu6 {
		lo = 0
	}
	if relu6 {
		hi = 6
	}
	return lo, hi
}

func strideOr1(s int) int {
	if s <= 0 {
		return 1
	}
	return s
}

func dilOr1(d int) int {
	if d <= 0 {
		return 1
	}
	return d
}
