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
//     kernels in internal/kernels (the group-1 convolutions the int8 tap
//     GEMM runs cheaper than their fp32 scheme, and FC, over the int8
//     micro-kernel in internal/matmul), quantizing activations once at
//     kernel entry with the calibrated scales — or per-sample max-abs when
//     a tensor was never calibrated — and requantizing fused with bias and
//     activation in the kernel's store. Every other operator, depthwise
//     convolutions among them, runs fp32 transparently (optimizer.PlanInt8
//     decides the partition).
package quant

import (
	"math"

	"mnn/internal/graph"
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
