// Package kernels implements the operator kernels of the engine: the
// optimized NC4HW4 paths (sliding window, Winograd per Figure 4 of the
// paper, 1×1-as-matmul, depthwise) plus naive reference
// implementations that serve both as correctness oracles in tests and as the
// "unoptimized operator" fallback that the case-by-case baseline engines
// fall into (paper Figure 8).
package kernels

import (
	"fmt"
	"math"

	"mnn/internal/graph"
	"mnn/internal/tensor"
)

// ConvRef is the naive direct convolution oracle. src/dst are NCHW; weight
// is [oc, ic/group, kh, kw]; bias may be nil. Supports stride, dilation,
// padding and groups (including depthwise). Deliberately unoptimized.
func ConvRef(dst, src, weight, bias *tensor.Tensor, a *graph.Conv2DAttrs) {
	N, C, H, W := src.Batch(), src.Channels(), src.Height(), src.Width()
	OC, OH, OW := dst.Channels(), dst.Height(), dst.Width()
	group := a.Group
	if group <= 0 {
		group = 1
	}
	icg := C / group
	ocg := OC / group
	dh, dw := a.DilationH, a.DilationW
	if dh <= 0 {
		dh = 1
	}
	if dw <= 0 {
		dw = 1
	}
	sh, sw := a.StrideH, a.StrideW
	if sh <= 0 {
		sh = 1
	}
	if sw <= 0 {
		sw = 1
	}
	ph, pw := graph.ConvPadding(H, W, a)
	var b []float32
	if bias != nil {
		b = bias.Data()
	}
	kh, kw := a.KernelH, a.KernelW
	sd, wd := src.ToLayout(tensor.NCHW).Data(), weight.ToLayout(tensor.NCHW).Data()
	out := dst.ToLayout(tensor.NCHW)
	od := out.Data()
	for n := 0; n < N; n++ {
		for oc := 0; oc < OC; oc++ {
			g := oc / ocg
			for oy := 0; oy < OH; oy++ {
				for ox := 0; ox < OW; ox++ {
					var sum float64
					for ic := 0; ic < icg; ic++ {
						plane := sd[(n*C+g*icg+ic)*H*W:]
						taps := wd[(oc*icg+ic)*kh*kw:]
						for ky := 0; ky < kh; ky++ {
							iy := oy*sh - ph + ky*dh
							if iy < 0 || iy >= H {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ox*sw - pw + kx*dw
								if ix < 0 || ix >= W {
									continue
								}
								sum += float64(plane[iy*W+ix]) * float64(taps[ky*kw+kx])
							}
						}
					}
					v := float32(sum)
					if b != nil {
						v += b[oc]
					}
					od[((n*OC+oc)*OH+oy)*OW+ox] = applyActivation(v, a.ReLU, a.ReLU6)
				}
			}
		}
	}
	if out != dst {
		dst.CopyFrom(out)
	}
}

// DeconvRef is the naive transposed-convolution oracle (NCHW).
// weight is [ic, oc/group, kh, kw] following the Caffe convention.
func DeconvRef(dst, src, weight, bias *tensor.Tensor, a *graph.Conv2DAttrs) {
	N, C, H, W := src.Batch(), src.Channels(), src.Height(), src.Width()
	OC, OH, OW := dst.Channels(), dst.Height(), dst.Width()
	group := a.Group
	if group <= 0 {
		group = 1
	}
	icg := C / group
	ocg := OC / group
	sh, sw := a.StrideH, a.StrideW
	if sh <= 0 {
		sh = 1
	}
	if sw <= 0 {
		sw = 1
	}
	dst.Zero()
	for n := 0; n < N; n++ {
		for g := 0; g < group; g++ {
			for ic := 0; ic < icg; ic++ {
				srcC := g*icg + ic
				for iy := 0; iy < H; iy++ {
					for ix := 0; ix < W; ix++ {
						sv := src.At(n, srcC, iy, ix)
						if sv == 0 {
							continue
						}
						for oc := 0; oc < ocg; oc++ {
							dstC := g*ocg + oc
							for ky := 0; ky < a.KernelH; ky++ {
								oy := iy*sh + ky - a.PadH
								if oy < 0 || oy >= OH {
									continue
								}
								for kx := 0; kx < a.KernelW; kx++ {
									ox := ix*sw + kx - a.PadW
									if ox < 0 || ox >= OW {
										continue
									}
									dst.Set(n, dstC, oy, ox,
										dst.At(n, dstC, oy, ox)+sv*weight.At(srcC, oc, ky, kx))
								}
							}
						}
					}
				}
			}
		}
	}
	if bias != nil {
		b := bias.Data()
		for n := 0; n < N; n++ {
			for oc := 0; oc < OC; oc++ {
				for oy := 0; oy < OH; oy++ {
					for ox := 0; ox < OW; ox++ {
						v := dst.At(n, oc, oy, ox) + b[oc]
						v = applyActivation(v, a.ReLU, a.ReLU6)
						dst.Set(n, oc, oy, ox, v)
					}
				}
			}
		}
	}
}

// PoolRef is the naive pooling oracle (NCHW).
func PoolRef(dst, src *tensor.Tensor, a *graph.PoolAttrs) {
	N, C, H, W := src.Batch(), src.Channels(), src.Height(), src.Width()
	OH, OW := dst.Height(), dst.Width()
	kh, kw := a.KernelH, a.KernelW
	sh, sw := a.StrideH, a.StrideW
	if sh <= 0 {
		sh = 1
	}
	if sw <= 0 {
		sw = 1
	}
	if a.Global {
		kh, kw, sh, sw = H, W, 1, 1
	}
	ph, pw := graph.PoolPadding(H, W, a)
	if a.Global {
		ph, pw = 0, 0
	}
	for n := 0; n < N; n++ {
		for c := 0; c < C; c++ {
			for oy := 0; oy < OH; oy++ {
				for ox := 0; ox < OW; ox++ {
					y0, x0 := oy*sh-ph, ox*sw-pw
					var acc float64
					count := 0
					neg := float32(math.Inf(-1))
					for ky := 0; ky < kh; ky++ {
						iy := y0 + ky
						if iy < 0 || iy >= H {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := x0 + kx
							if ix < 0 || ix >= W {
								continue
							}
							v := src.At(n, c, iy, ix)
							if a.Type == graph.MaxPool {
								if v > neg {
									neg = v
								}
							} else {
								acc += float64(v)
							}
							count++
						}
					}
					var out float32
					if a.Type == graph.MaxPool {
						out = neg
					} else {
						div := count
						if a.CountIncludePad {
							div = kh * kw
						}
						if div == 0 {
							div = 1
						}
						out = float32(acc / float64(div))
					}
					dst.Set(n, c, oy, ox, out)
				}
			}
		}
	}
}

// InnerProductRef computes dst[b, o] = Σ_i src[b, i]·w[o, i] + bias[o].
// src may be any rank; it is flattened per batch.
func InnerProductRef(dst, src, weight, bias *tensor.Tensor, a *graph.InnerProductAttrs) {
	batch := src.Dim(0)
	features := src.NumElements() / batch
	s := src.ToLayout(tensor.NCHW).Data()
	w := weight.Data()
	d := dst.Data()
	var b []float32
	if bias != nil {
		b = bias.Data()
	}
	for n := 0; n < batch; n++ {
		for o := 0; o < a.OutputCount; o++ {
			var sum float64
			for i := 0; i < features; i++ {
				sum += float64(s[n*features+i]) * float64(w[o*features+i])
			}
			v := float32(sum)
			if b != nil {
				v += b[o]
			}
			if a.ReLU && v < 0 {
				v = 0
			}
			d[n*a.OutputCount+o] = v
		}
	}
}

// SoftmaxRef computes softmax along axis. Any layout is accepted: the
// stride walk below indexes raw buffers with row-major strides, which is
// only valid on flat NCHW data, so NC4HW4/NHWC tensors are staged through
// NCHW first (allocation is acceptable in a reference kernel). A negative
// axis counts from the end (-1 = last axis); an out-of-range axis panics
// rather than silently normalizing over the wrong extent.
func SoftmaxRef(dst, src *tensor.Tensor, axis int) {
	shape := src.Shape()
	if axis < 0 {
		axis += len(shape)
	}
	if axis < 0 || axis >= len(shape) {
		panic(fmt.Sprintf("kernels: softmax axis %d out of range for rank %d", axis, len(shape)))
	}
	if src.Layout() != tensor.NCHW {
		src = src.ToLayout(tensor.NCHW)
	}
	flat := dst
	if dst.Layout() != tensor.NCHW {
		flat = tensor.New(shape...)
	}
	softmaxFlat(flat, src, axis, shape)
	if flat != dst {
		dst.CopyFrom(flat)
	}
}

func softmaxFlat(dst, src *tensor.Tensor, axis int, shape []int) {
	outer := 1
	for _, d := range shape[:axis] {
		outer *= d
	}
	axisN := shape[axis]
	inner := 1
	for _, d := range shape[axis+1:] {
		inner *= d
	}
	s := src.Data()
	d := dst.Data()
	for o := 0; o < outer; o++ {
		for in := 0; in < inner; in++ {
			base := o*axisN*inner + in
			maxV := float64(math.Inf(-1))
			for i := 0; i < axisN; i++ {
				if v := float64(s[base+i*inner]); v > maxV {
					maxV = v
				}
			}
			var sum float64
			for i := 0; i < axisN; i++ {
				sum += math.Exp(float64(s[base+i*inner]) - maxV)
			}
			for i := 0; i < axisN; i++ {
				d[base+i*inner] = float32(math.Exp(float64(s[base+i*inner])-maxV) / sum)
			}
		}
	}
}

// BatchNormRef applies y = gamma·(x-mean)/sqrt(var+eps) + beta per channel.
func BatchNormRef(dst, src, gamma, beta, mean, variance *tensor.Tensor, eps float32) {
	N, C, H, W := src.Batch(), src.Channels(), src.Height(), src.Width()
	g, b, m, v := gamma.Data(), beta.Data(), mean.Data(), variance.Data()
	for n := 0; n < N; n++ {
		for c := 0; c < C; c++ {
			scale := g[c] / float32(math.Sqrt(float64(v[c]+eps)))
			shift := b[c] - scale*m[c]
			for y := 0; y < H; y++ {
				for x := 0; x < W; x++ {
					dst.Set(n, c, y, x, src.At(n, c, y, x)*scale+shift)
				}
			}
		}
	}
}

// ScaleRef applies y = x·scale[c] (+ bias[c]).
func ScaleRef(dst, src, scale, bias *tensor.Tensor) {
	N, C, H, W := src.Batch(), src.Channels(), src.Height(), src.Width()
	s := scale.Data()
	var b []float32
	if bias != nil {
		b = bias.Data()
	}
	for n := 0; n < N; n++ {
		for c := 0; c < C; c++ {
			sc := s[c]
			var sh float32
			if b != nil {
				sh = b[c]
			}
			for y := 0; y < H; y++ {
				for x := 0; x < W; x++ {
					dst.Set(n, c, y, x, src.At(n, c, y, x)*sc+sh)
				}
			}
		}
	}
}

func applyActivation(v float32, relu, relu6 bool) float32 {
	if relu6 {
		if v < 0 {
			return 0
		}
		if v > 6 {
			return 6
		}
		return v
	}
	if relu && v < 0 {
		return 0
	}
	return v
}
