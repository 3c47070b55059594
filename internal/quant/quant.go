// Package quant implements the paper's Section 3.1 model quantization, both
// halves of it:
//
//   - the offline tool: symmetric per-tensor int8 quantization of
//     convolution and fully-connected weights (QuantizeWeights) for 4×
//     model-size compression, and a calibration pass (Calibrate) that runs
//     sample inputs through an fp32 session and records per-tensor
//     activation scales into the graph, where the converter persists them;
//
//   - the runtime contract: engines opened with int8 precision
//     (mnn.WithPrecision) execute calibrated graphs on the prepared int8
//     kernels in internal/kernels (GEMM-lowered convolutions and FC over
//     the int8 micro-kernel in internal/matmul), quantizing activations
//     once at kernel entry with the calibrated scales — or per-sample
//     max-abs when a tensor was never calibrated — and requantizing fused
//     with bias and activation in the kernel's store. Operators without an
//     int8 kernel, depthwise convolutions among them, run fp32
//     transparently (optimizer.PlanInt8 decides the partition).
//
// QuantizedConv in this package is the self-contained reference form of the
// quantized convolution; the engine path uses the pooled, planner-backed
// kernels instead.
package quant

import (
	"fmt"
	"math"

	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/tensor"
)

// QuantizeTensor converts a float32 tensor to symmetric int8:
// q = round(x / scale) with scale = tensor.QuantScale(maxAbs) — maxAbs/127,
// where an all-zero tensor keeps scale 1 so exact zeros round-trip exactly.
func QuantizeTensor(t *tensor.Tensor) *tensor.Tensor {
	d := t.Data()
	var maxAbs float64
	for _, v := range d {
		a := math.Abs(float64(v))
		if a > maxAbs {
			maxAbs = a
		}
	}
	scale := tensor.QuantScale(maxAbs)
	q := tensor.NewInt8(tensor.QuantParams{Scale: scale}, t.Shape()...)
	qd := q.Int8Data()
	for i, v := range d {
		r := math.RoundToEven(float64(v / scale))
		if r > 127 {
			r = 127
		}
		if r < -127 {
			r = -127
		}
		qd[i] = int8(r)
	}
	return q
}

// Dequantize converts an int8 tensor back to float32. Non-int8 input is an
// error, not a panic: the model-load path feeds this untrusted data.
func Dequantize(q *tensor.Tensor) (*tensor.Tensor, error) {
	t, err := q.Dequantize()
	if err != nil {
		return nil, fmt.Errorf("quant: %w", err)
	}
	return t, nil
}

// QuantizeWeights replaces every Conv2D/InnerProduct filter in the graph
// with its int8 form (biases stay float32: they are tiny and precision-
// critical). Returns the number of tensors quantized and the byte savings.
func QuantizeWeights(g *graph.Graph) (count int, savedBytes int64) {
	for _, n := range g.Nodes {
		if n.Op != graph.OpConv2D && n.Op != graph.OpDeconv2D && n.Op != graph.OpInnerProduct {
			continue
		}
		if len(n.WeightNames) == 0 {
			continue
		}
		name := n.WeightNames[0]
		w := g.Weights[name]
		if w.DType() != tensor.Float32 {
			continue
		}
		g.Weights[name] = QuantizeTensor(w)
		count++
		savedBytes += int64(w.NumElements()) * 3 // 4 bytes → 1 byte
	}
	return count, savedBytes
}

// DequantizeWeights restores float32 weights in place (the on-device load
// path for engines without int8 kernels).
func DequantizeWeights(g *graph.Graph) int {
	count := 0
	for name, w := range g.Weights {
		if w.DType() != tensor.Int8 {
			continue
		}
		d, err := Dequantize(w)
		if err != nil {
			// Unreachable: guarded by the dtype check above.
			continue
		}
		g.Weights[name] = d
		count++
	}
	return count
}

// MaxQuantError returns the worst absolute error introduced by quantizing
// and dequantizing t.
func MaxQuantError(t *tensor.Tensor) float64 {
	d, err := Dequantize(QuantizeTensor(t))
	if err != nil {
		// Unreachable: QuantizeTensor always yields int8.
		panic(err)
	}
	return tensor.MaxAbsDiff(t, d)
}

// MulInt8 computes the int8×int8→int32 GEMM dst = a·b with int32
// accumulation: a is m×k, b is k×n (row-major). It is matmul.MulInt8Ref,
// the one reference loop of the int8 kernels.
func MulInt8(dst []int32, a, b []int8, m, k, n int) {
	matmul.MulInt8Ref(dst, a, b, m, k, n)
}

// QuantizedConv is a prepared int8 convolution (im2col + int8 GEMM +
// float32 requantization). src and dst are float32 NCHW tensors; the input
// is quantized on the fly with the calibrated input scale.
type QuantizedConv struct {
	attrs      graph.Conv2DAttrs
	ic, oc     int
	wq         []int8 // [k][oc] transposed quantized weights
	wScale     float32
	bias       []float32
	InputScale float32 // calibrated activation scale (x/scale → int8)
}

// PrepareQuantizedConv quantizes weights ([oc, ic, kh, kw], group 1) and
// fixes the activation scale. inputScale 0 lets Run derive it per call.
func PrepareQuantizedConv(weight, bias *tensor.Tensor, a *graph.Conv2DAttrs, inputScale float32) (*QuantizedConv, error) {
	if a.Group > 1 {
		return nil, fmt.Errorf("quant: grouped convolution not supported")
	}
	oc, ic := weight.Dim(0), weight.Dim(1)
	k := ic * a.KernelH * a.KernelW
	q := QuantizeTensor(weight)
	qc := &QuantizedConv{attrs: *a, ic: ic, oc: oc, wScale: q.Quant.Scale, InputScale: inputScale}
	qc.wq = make([]int8, k*oc)
	qd := q.Int8Data()
	for o := 0; o < oc; o++ {
		for i := 0; i < k; i++ {
			qc.wq[i*oc+o] = qd[o*k+i]
		}
	}
	qc.bias = make([]float32, oc)
	if bias != nil {
		copy(qc.bias, bias.Data())
	}
	return qc, nil
}

// Run executes the quantized convolution on NCHW tensors.
func (qc *QuantizedConv) Run(dst, src *tensor.Tensor) {
	a := &qc.attrs
	N, _, H, W := src.Batch(), src.Channels(), src.Height(), src.Width()
	OH, OW := dst.Height(), dst.Width()
	kh, kw := a.KernelH, a.KernelW
	sh, sw := a.StrideH, a.StrideW
	if sh <= 0 {
		sh = 1
	}
	if sw <= 0 {
		sw = 1
	}
	dh, dw := a.DilationH, a.DilationW
	if dh <= 0 {
		dh = 1
	}
	if dw <= 0 {
		dw = 1
	}
	ph, pw := graph.ConvPadding(H, W, a)
	k := qc.ic * kh * kw
	px := OH * OW

	inScale := qc.InputScale
	if inScale == 0 {
		var maxAbs float64
		for _, v := range src.Data() {
			x := math.Abs(float64(v))
			if x > maxAbs {
				maxAbs = x
			}
		}
		inScale = float32(maxAbs / 127)
		if inScale == 0 {
			inScale = 1
		}
	}
	outScale := inScale * qc.wScale

	cols := make([]int8, px*k)
	acc := make([]int32, px*qc.oc)
	s := src.Data()
	d := dst.Data()
	for n := 0; n < N; n++ {
		for p := 0; p < px; p++ {
			oy, ox := p/OW, p%OW
			row := cols[p*k : (p+1)*k]
			idx := 0
			for i := 0; i < qc.ic; i++ {
				chanOff := (n*qc.ic + i) * H * W
				for ky := 0; ky < kh; ky++ {
					iy := oy*sh - ph + ky*dh
					for kx := 0; kx < kw; kx++ {
						ix := ox*sw - pw + kx*dw
						if iy < 0 || iy >= H || ix < 0 || ix >= W {
							row[idx] = 0
						} else {
							r := math.RoundToEven(float64(s[chanOff+iy*W+ix] / inScale))
							if r > 127 {
								r = 127
							}
							if r < -127 {
								r = -127
							}
							row[idx] = int8(r)
						}
						idx++
					}
				}
			}
		}
		MulInt8(acc, cols, qc.wq, px, k, qc.oc)
		for p := 0; p < px; p++ {
			for o := 0; o < qc.oc; o++ {
				v := float32(acc[p*qc.oc+o])*outScale + qc.bias[o]
				if a.ReLU6 {
					if v < 0 {
						v = 0
					} else if v > 6 {
						v = 6
					}
				} else if a.ReLU && v < 0 {
					v = 0
				}
				d[(n*qc.oc+o)*px+p] = v
			}
		}
	}
}
