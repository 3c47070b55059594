package kernels

import (
	"fmt"
	"math"

	"mnn/internal/graph"
	"mnn/internal/tensor"
)

// Reference kernels for the transformer op set (LayerNorm, GELU, MatMul,
// Transpose). Like the CNN oracles in ref.go they are deliberately
// unoptimized and accumulate in float64; the prepared kernels in
// transformer_ops.go must agree within the conformance tolerance. All of
// them derive element counts from the tensor shape, never from buffer
// length, so they work on max-shape-planned (dynamic) tensors whose backing
// buffers are longer than the logical content.

// LayerNormRef normalizes over the last axis: y = gamma·(x-mean)/sqrt(var+eps) + beta.
// src/dst are flat row-major; gamma/beta are [D] with D the last dim.
func LayerNormRef(dst, src, gamma, beta *tensor.Tensor, eps float32) {
	shape := src.Shape()
	d := shape[len(shape)-1]
	rows := leadingRows(shape)
	s, o := src.Data(), dst.Data()
	g, b := gamma.Data(), beta.Data()
	for r := 0; r < rows; r++ {
		row := s[r*d : (r+1)*d]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(d)
		var variance float64
		for _, v := range row {
			dv := float64(v) - mean
			variance += dv * dv
		}
		variance /= float64(d)
		inv := 1 / math.Sqrt(variance+float64(eps))
		out := o[r*d : (r+1)*d]
		for i, v := range row {
			out[i] = float32((float64(v)-mean)*inv*float64(g[i]) + float64(b[i]))
		}
	}
}

// GELURef applies the tanh-approximated Gaussian error linear unit
// elementwise: 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))).
func GELURef(dst, src *tensor.Tensor) {
	n := tensor.NumElements(src.Shape())
	s, o := src.Data(), dst.Data()
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i := 0; i < n; i++ {
		x := float64(s[i])
		o[i] = float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
	}
}

// TransposeRef permutes axes: dst[i0..ik] = src[i_perm[0]..i_perm[k]] with
// output dim j = input dim perm[j]. Flat row-major tensors of any rank.
func TransposeRef(dst, src *tensor.Tensor, perm []int) {
	in := src.Shape()
	out := dst.Shape()
	rank := len(in)
	inStride := rowMajorStrides(in)
	outStride := rowMajorStrides(out)
	s, o := src.Data(), dst.Data()
	total := tensor.NumElements(out)
	idx := make([]int, rank)
	for flat := 0; flat < total; flat++ {
		rem := flat
		for j := 0; j < rank; j++ {
			idx[j] = rem / outStride[j]
			rem %= outStride[j]
		}
		srcOff := 0
		for j := 0; j < rank; j++ {
			srcOff += idx[j] * inStride[perm[j]]
		}
		o[flat] = s[srcOff]
	}
}

func rowMajorStrides(shape []int) []int {
	st := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= shape[i]
	}
	return st
}

// MatMulRef is the oracle for all three MatMul forms (see graph.MatMulAttrs).
// Weight form: b is nil, w is [K,N], bias optional [N]. Batched forms: w and
// bias are nil, a/b are the two rank-3 activations.
func MatMulRef(dst, a, b, w, bias *tensor.Tensor, attrs *graph.MatMulAttrs) {
	if attrs.Heads == 0 {
		matMulWeightRef(dst, a, w, bias, attrs.Scale)
		return
	}
	if attrs.TransposeB {
		matMulQKRef(dst, a, b, attrs.Heads, attrs.Scale)
		return
	}
	matMulAVRef(dst, a, b, attrs.Heads, attrs.Scale)
}

func refScale(s float32) float64 {
	if s == 0 {
		return 1
	}
	return float64(s)
}

func matMulWeightRef(dst, src, w, bias *tensor.Tensor, scale float32) {
	ws := w.Shape()
	k, n := ws[0], ws[1]
	shape := src.Shape()
	rows := leadingRows(shape)
	if shape[len(shape)-1] != k {
		panic(fmt.Sprintf("kernels: matmul ref inner dim %d != %d", shape[len(shape)-1], k))
	}
	s, o, wd := src.Data(), dst.Data(), w.Data()
	var bd []float32
	if bias != nil {
		bd = bias.Data()
	}
	sc := refScale(scale)
	for r := 0; r < rows; r++ {
		for j := 0; j < n; j++ {
			var acc float64
			for p := 0; p < k; p++ {
				acc += float64(s[r*k+p]) * float64(wd[p*n+j])
			}
			acc *= sc
			if bd != nil {
				acc += float64(bd[j])
			}
			o[r*n+j] = float32(acc)
		}
	}
}

func matMulQKRef(dst, q, kt *tensor.Tensor, heads int, scale float32) {
	qs, ks := q.Shape(), kt.Shape()
	bN, la, d := qs[0], qs[1], qs[2]
	lb := ks[1]
	dh := d / heads
	sc := refScale(scale)
	qd, kd, o := q.Data(), kt.Data(), dst.Data()
	for b := 0; b < bN; b++ {
		for h := 0; h < heads; h++ {
			for i := 0; i < la; i++ {
				for j := 0; j < lb; j++ {
					var acc float64
					for p := 0; p < dh; p++ {
						acc += float64(qd[(b*la+i)*d+h*dh+p]) * float64(kd[(b*lb+j)*d+h*dh+p])
					}
					o[(b*heads*la+h*la+i)*lb+j] = float32(acc * sc)
				}
			}
		}
	}
}

func matMulAVRef(dst, a, v *tensor.Tensor, heads int, scale float32) {
	as, vs := a.Shape(), v.Shape()
	bN, hla, lb := as[0], as[1], as[2]
	la := hla / heads
	d := vs[2]
	dh := d / heads
	sc := refScale(scale)
	ad, vd, o := a.Data(), v.Data(), dst.Data()
	for b := 0; b < bN; b++ {
		for h := 0; h < heads; h++ {
			for i := 0; i < la; i++ {
				for j := 0; j < dh; j++ {
					var acc float64
					for p := 0; p < lb; p++ {
						acc += float64(ad[(b*hla+h*la+i)*lb+p]) * float64(vd[(b*lb+p)*d+h*dh+j])
					}
					o[(b*la+i)*d+h*dh+j] = float32(acc * sc)
				}
			}
		}
	}
}
