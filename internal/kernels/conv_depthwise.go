package kernels

import (
	"unsafe"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// DepthwiseConv is the prepared state of the depthwise convolution on
// NC4HW4 tensors. Each channel convolves with its own kh×kw filter; the four
// channels of a packed block are processed lane-parallel, mirroring the NEON
// vectorization of the paper's kernels. The output of a channel pack is cut
// once per geometry into the rectangle of interior pixels that the
// depthwise3x3 assembly kernel takes two at a time (3×3, dilation 1, stride 1
// or 2, on hosts with AVX2) and, for everything else — border pixels, an odd
// last interior column, other shapes — runs of adjacent pixels that share a
// list of in-image taps, which depthwiseRuns walks: assembly on hosts with
// AVX2, runsGo elsewhere and as the oracle the assembly is bitwise equal to.
type DepthwiseConv struct {
	attrs  graph.Conv2DAttrs
	c      int
	packed []float32 // [c4][kh][kw][4]
	bias   []float32 // length c4*4
	lo, hi float32   // activation clamp
	simd   bool      // matmul.HaveAVX2: the assembly kernels run
	shape3 bool      // a shape depthwise3x3 covers: 3×3, dilation 1, stride 1 or 2

	rs depthwiseRun
}

// depthwiseRun is the bound per-run state: the operands, and the cut of one
// channel pack's output, rebuilt only when the geometry changes (the zero
// geometry of a kernel that has not run matches no tensor).
type depthwiseRun struct {
	tapGeom
	s, d []float32
	c4   int
	// The interior rectangle: rows output rows from oy, 2·pairs columns from ox.
	oy, ox, rows, pairs int
	runs                []dwRun
	taps                []matmul.Tap // the runs' tap lists, one after the other
}

// dwRun is a run of `pixels` adjacent output pixels, the first `dst` floats
// into the pack, with the next `taps` entries of the tap list: Tap.A is the
// tap's source for the first pixel, in floats from the pack's start, Tap.B
// its four weights in the pack's kh·kw·4.
type dwRun struct{ dst, pixels, taps int }

// PrepareDepthwise packs weights for the depthwise kernel.
// weight is [c, 1, kh, kw]; bias may be nil.
func PrepareDepthwise(weight, bias *tensor.Tensor, a *graph.Conv2DAttrs) *DepthwiseConv {
	c := weight.Dim(0)
	kh, kw := a.KernelH, a.KernelW
	c4 := tensor.UpDiv(c, 4)
	dc := &DepthwiseConv{attrs: *a, c: c, simd: matmul.HaveAVX2()}
	dc.packed = make([]float32, c4*kh*kw*4)
	taps := kh * kw
	for ch := 0; ch < c; ch++ {
		for t, v := range weight.Data()[ch*taps : (ch+1)*taps] {
			dc.packed[(ch/4*taps+t)*4+ch%4] = v
		}
	}
	dc.bias = paddedBias(bias, c4*4)
	dc.lo, dc.hi = clampBounds(a.ReLU, a.ReLU6)
	sw := strideOr1(a.StrideW)
	dc.shape3 = kh == 3 && kw == 3 && (sw == 1 || sw == 2) && dilOr1(a.DilationH) == 1 && dilOr1(a.DilationW) == 1
	return dc
}

// Share returns a kernel over dc's packed weight with run state of its own:
// the cut of a pack's output is per geometry, hence per kernel.
func (dc *DepthwiseConv) Share() *DepthwiseConv {
	s := *dc
	s.rs = depthwiseRun{}
	return &s
}

// Run executes the depthwise convolution on the pool. src and dst must be
// NC4HW4. Steady-state calls are allocation-free.
func (dc *DepthwiseConv) Run(dst, src *tensor.Tensor, p *sched.Pool) {
	r := &dc.rs
	r.s, r.d, r.c4 = src.Data(), dst.Data(), tensor.UpDiv(dc.c, 4)
	if g := newTapGeom(&dc.attrs, src.Height(), src.Width(), dst.Height(), dst.Width()); g != r.tapGeom {
		r.tapGeom = g
		dc.cut()
	}
	total := src.Batch() * r.c4
	p.Run(total, sched.Chunk(total, p.Lanes(), elemChunksPerLane), dc)
}

// interiorRange returns the output positions along one axis whose whole
// window is inside the image: o·stride−pad ≥ 0 and o·stride−pad+(k−1)·dil ≤
// size−1. hi < lo when there are none.
func interiorRange(size, out, k, stride, dil, pad int) (lo, hi int) {
	num := size - 1 - (k-1)*dil + pad
	if num < 0 {
		return 0, -1 // the window never fits
	}
	return (pad + stride - 1) / stride, min(num/stride, out-1)
}

// cut divides a channel pack's output between the two kernels: the interior
// rectangle, where depthwise3x3 may run, and runs (tapGeom.runAt) over every
// other pixel. Out-of-image taps are left out of the lists, not multiplied by
// a zero pad: a product with a NaN or infinite weight, or the +0 that would
// turn a -0 sum into +0, never enters a border pixel.
func (dc *DepthwiseConv) cut() {
	r := &dc.rs
	kh, kw := dc.attrs.KernelH, dc.attrs.KernelW
	oxLo, oxHi := interiorRange(r.W, r.OW, kw, r.sw, r.dw, r.pw)
	oyLo, oyHi := interiorRange(r.H, r.OH, kh, r.sh, r.dh, r.ph)
	r.oy, r.ox, r.rows, r.pairs = oyLo, oxLo, 0, 0
	if dc.simd && dc.shape3 && oyHi >= oyLo && oxHi > oxLo {
		r.rows, r.pairs = oyHi-oyLo+1, (oxHi-oxLo+1)/2
	}
	r.runs, r.taps = r.runs[:0], r.taps[:0]
	for oy := 0; oy < r.OH; oy++ {
		for x := 0; x < r.OW; {
			if x == r.ox && oy >= r.oy && oy < r.oy+r.rows {
				if x += 2 * r.pairs; x == r.OW {
					break
				}
			}
			n, x0 := len(r.taps), x
			x, r.taps = r.runAt(r.taps, oy, x, r.OW, kh, kw, kw*4, 4)
			r.runs = append(r.runs, dwRun{dst: (oy*r.OW + x0) * 4, pixels: x - x0, taps: len(r.taps) - n})
		}
	}
}

// RunChunk implements sched.Task: one (batch, channel-block) per item. Every
// kernel adds the in-image taps in the same (ky, kx) order onto the bias,
// multiply and add rounded separately, so a pixel has the same bits whichever
// computes it.
func (dc *DepthwiseConv) RunChunk(_, start, end int) {
	r := &dc.rs
	wPack := dc.attrs.KernelH * dc.attrs.KernelW * 4
	for item := start; item < end; item++ {
		cz := item % r.c4
		src, dst := r.s[item*r.srcPack:(item+1)*r.srcPack], r.d[item*r.dstPack:(item+1)*r.dstPack]
		w, bias := dc.packed[cz*wPack:(cz+1)*wPack], dc.bias[cz*4:cz*4+4]
		if r.pairs > 0 {
			depthwise3x3(&dst[(r.oy*r.OW+r.ox)*4], &src[((r.oy*r.sh-r.ph)*r.W+r.ox*r.sw-r.pw)*4],
				r.rows, r.pairs, r.OW*4, r.W*4, r.sh*r.W*4, r.sw, &w[0], &bias[0], dc.lo, dc.hi)
		}
		if len(r.runs) == 0 {
			continue // the rectangle is the whole output
		}
		if dc.simd {
			depthwiseRuns(&dst[0], &src[0], &r.runs[0], len(r.runs), unsafe.SliceData(r.taps), r.sw*4, &w[0], &bias[0], dc.lo, dc.hi)
		} else {
			r.runsGo(dst, src, w, bias, dc.lo, dc.hi)
		}
	}
}

// runsGo is depthwiseRuns in plain Go: every pixel of every run is the bias
// plus its taps' products in list order, clamped to [lo, hi]. float32(·)
// keeps multiply and add separately rounded where the compiler could fuse
// them (arm64), as the assembly does.
func (r *depthwiseRun) runsGo(dst, src, w, bias []float32, lo, hi float32) {
	taps := r.taps
	for _, run := range r.runs {
		for p := 0; p < run.pixels; p++ {
			acc0, acc1, acc2, acc3 := bias[0], bias[1], bias[2], bias[3]
			for _, t := range taps[:run.taps] {
				sp, wp := src[t.A+p*r.sw*4:t.A+p*r.sw*4+4], w[t.B:t.B+4]
				acc0 += float32(sp[0] * wp[0])
				acc1 += float32(sp[1] * wp[1])
				acc2 += float32(sp[2] * wp[2])
				acc3 += float32(sp[3] * wp[3])
			}
			d := dst[run.dst+p*4 : run.dst+p*4+4]
			d[0], d[1], d[2], d[3] = clamp(acc0, lo, hi), clamp(acc1, lo, hi), clamp(acc2, lo, hi), clamp(acc3, lo, hi)
		}
		taps = taps[run.taps:]
	}
}

// clamp is the fused activation over clampBounds' interval.
func clamp(v, lo, hi float32) float32 {
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}
