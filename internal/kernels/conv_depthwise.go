package kernels

import (
	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// DepthwiseConv is the prepared state of the depthwise convolution on
// NC4HW4 tensors. Each channel convolves with its own kh×kw filter; the four
// channels of a packed block are processed lane-parallel, mirroring the NEON
// vectorization of the paper's kernels. On hosts with AVX2 the interior of a
// 3×3, dilation-1, stride-1/2 convolution runs the depthwise3x3 assembly
// kernel straight over the packs; border pixels, other shapes and other hosts
// run the scalar loop, which is also the oracle the assembly is bitwise
// equal to.
type DepthwiseConv struct {
	attrs  graph.Conv2DAttrs
	c      int
	packed []float32 // [c4][kh][kw][4]
	bias   []float32 // length c4*4
	lo, hi float32   // activation clamp for the assembly kernel
	simd   bool      // matmul.HaveAVX2 and a shape depthwise3x3 covers

	rs depthwiseRun
}

type depthwiseRun struct {
	s, d                   []float32
	H, W, OH, OW, c4       int
	kh, kw, sh, sw, dh, dw int
	ph, pw                 int
	relu, relu6            bool
}

// PrepareDepthwise packs weights for the depthwise kernel.
// weight is [c, 1, kh, kw]; bias may be nil.
func PrepareDepthwise(weight, bias *tensor.Tensor, a *graph.Conv2DAttrs) *DepthwiseConv {
	c := weight.Dim(0)
	kh, kw := a.KernelH, a.KernelW
	c4 := tensor.UpDiv(c, 4)
	dc := &DepthwiseConv{attrs: *a, c: c}
	dc.packed = make([]float32, c4*kh*kw*4)
	w := weight.Data()
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				v := w[(ch*kh+ky)*kw+kx]
				cz, cl := ch/4, ch%4
				dc.packed[((cz*kh+ky)*kw+kx)*4+cl] = v
			}
		}
	}
	dc.bias = make([]float32, c4*4)
	if bias != nil {
		copy(dc.bias, bias.Data())
	}
	dc.lo, dc.hi = clampBounds(a.ReLU, a.ReLU6)
	sw := strideOr1(a.StrideW)
	dc.simd = matmul.HaveAVX2() && kh == 3 && kw == 3 && (sw == 1 || sw == 2) &&
		dilOr1(a.DilationH) == 1 && dilOr1(a.DilationW) == 1
	return dc
}

// Run executes the depthwise convolution on the pool. src and dst must be
// NC4HW4. Steady-state calls are allocation-free.
func (dc *DepthwiseConv) Run(dst, src *tensor.Tensor, p *sched.Pool) {
	a := &dc.attrs
	N, H, W := src.Batch(), src.Height(), src.Width()
	ph, pw := graph.ConvPadding(H, W, a)
	dc.rs = depthwiseRun{
		s: src.Data(), d: dst.Data(),
		H: H, W: W, OH: dst.Height(), OW: dst.Width(),
		c4: tensor.UpDiv(dc.c, 4),
		kh: a.KernelH, kw: a.KernelW,
		sh: strideOr1(a.StrideH), sw: strideOr1(a.StrideW),
		dh: dilOr1(a.DilationH), dw: dilOr1(a.DilationW),
		ph: ph, pw: pw, relu: a.ReLU, relu6: a.ReLU6,
	}
	total := N * dc.rs.c4
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

// RunChunk implements sched.Task: one (batch, channel-block) per item.
// Interior output pixels — where the kernel window cannot cross the image
// border — need no per-tap bounds checks: the assembly kernel takes them two
// at a time, and what it leaves (an odd last column, or all of them when
// dc.simd is off) takes the scalar fast path; border pixels take the checked
// scalar path. Every path adds the in-image taps in the same (ky, kx) order
// onto the bias, multiply and add rounded separately, so a pixel has the
// same bits whichever computes it.
func (dc *DepthwiseConv) RunChunk(_, start, end int) {
	r := &dc.rs
	s, d := r.s, r.d
	oxLo, oxHi := interiorRange(r.W, r.OW, r.kw, r.sw, r.dw, r.pw)
	oyLo, oyHi := interiorRange(r.H, r.OH, r.kh, r.sh, r.dh, r.ph)
	// The assembly kernel covers rows [oyLo, oyHi] × columns [oxLo, oxSIMD).
	oxSIMD := oxLo
	if dc.simd && oyHi >= oyLo && oxHi > oxLo {
		oxSIMD += (oxHi - oxLo + 1) &^ 1
	}
	for item := start; item < end; item++ {
		n, cz := item/r.c4, item%r.c4
		b0, b1, b2, b3 := dc.bias[cz*4], dc.bias[cz*4+1], dc.bias[cz*4+2], dc.bias[cz*4+3]
		srcCZ := ((n*r.c4 + cz) * r.H) * r.W * 4
		dstCZ := ((n*r.c4 + cz) * r.OH) * r.OW * 4
		wCZ := cz * r.kh * r.kw * 4
		if oxSIMD > oxLo {
			depthwise3x3(&d[dstCZ+(oyLo*r.OW+oxLo)*4],
				&s[srcCZ+((oyLo*r.sh-r.ph)*r.W+oxLo*r.sw-r.pw)*4],
				oyHi-oyLo+1, (oxSIMD-oxLo)/2, r.OW*4, r.W*4, r.sh*r.W*4, r.sw,
				&dc.packed[wCZ], &dc.bias[cz*4], dc.lo, dc.hi)
		}
		for oy := 0; oy < r.OH; oy++ {
			iy0 := oy*r.sh - r.ph
			rowInterior := oy >= oyLo && oy <= oyHi
			for ox := 0; ox < r.OW; ox++ {
				if rowInterior && ox == oxLo && oxSIMD > oxLo {
					if ox = oxSIMD; ox == r.OW { // [oxLo, oxSIMD) is done above
						break
					}
				}
				acc0, acc1, acc2, acc3 := b0, b1, b2, b3
				if rowInterior && ox >= oxLo && ox <= oxHi {
					base := srcCZ + iy0*r.W*4 + (ox*r.sw-r.pw)*4
					wo := wCZ
					for ky := 0; ky < r.kh; ky++ {
						so := base + ky*r.dh*r.W*4
						for kx := 0; kx < r.kw; kx++ {
							wp := dc.packed[wo : wo+4]
							// float32(·) keeps multiply and add separately
							// rounded where the compiler could fuse them
							// (arm64), as the assembly does.
							acc0 += float32(s[so] * wp[0])
							acc1 += float32(s[so+1] * wp[1])
							acc2 += float32(s[so+2] * wp[2])
							acc3 += float32(s[so+3] * wp[3])
							so += r.dw * 4
							wo += 4
						}
					}
				} else {
					for ky := 0; ky < r.kh; ky++ {
						iy := iy0 + ky*r.dh
						if iy < 0 || iy >= r.H {
							continue
						}
						rowOff := srcCZ + iy*r.W*4
						wKY := wCZ + ky*r.kw*4
						for kx := 0; kx < r.kw; kx++ {
							ix := ox*r.sw - r.pw + kx*r.dw
							if ix < 0 || ix >= r.W {
								continue
							}
							so := rowOff + ix*4
							wo := wKY + kx*4
							acc0 += float32(s[so] * dc.packed[wo])
							acc1 += float32(s[so+1] * dc.packed[wo+1])
							acc2 += float32(s[so+2] * dc.packed[wo+2])
							acc3 += float32(s[so+3] * dc.packed[wo+3])
						}
					}
				}
				if r.relu6 {
					acc0, acc1, acc2, acc3 = relu6(acc0), relu6(acc1), relu6(acc2), relu6(acc3)
				} else if r.relu {
					acc0, acc1, acc2, acc3 = relu(acc0), relu(acc1), relu(acc2), relu(acc3)
				}
				do := dstCZ + (oy*r.OW+ox)*4
				d[do] = acc0
				d[do+1] = acc1
				d[do+2] = acc2
				d[do+3] = acc3
			}
		}
	}
}
