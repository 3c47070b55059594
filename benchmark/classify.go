package main

import (
	"mnn/internal/graph"
	"mnn/internal/tensor"
)

// opClasses are the operator classes the per-layer pass reports
// (session.op.<class>_ms). Every graph node falls in exactly one.
var opClasses = []string{
	"conv1x1", "conv_dw", "conv3x3", "conv_other", "fc", "pool", "matmul",
	"gelu", "softmax", "layernorm", "elementwise", "layout", "other",
}

// classify maps a node to its class from the graph attributes alone, so the
// class does not move when the engine picks another algorithm for it.
func classify(n *graph.Node) string {
	switch n.Op {
	case graph.OpConv2D:
		a := n.Attrs.(*graph.Conv2DAttrs)
		switch {
		case a.IsDepthwise():
			return "conv_dw"
		case a.KernelH == 1 && a.KernelW == 1 && a.Group <= 1:
			return "conv1x1"
		case a.KernelH == 3 && a.KernelW == 3 && a.Group <= 1:
			return "conv3x3"
		}
		return "conv_other"
	case graph.OpInnerProduct:
		return "fc"
	case graph.OpPool:
		return "pool"
	case graph.OpMatMul:
		return "matmul"
	case graph.OpGELU:
		return "gelu"
	case graph.OpSoftmax:
		return "softmax"
	case graph.OpLayerNorm:
		return "layernorm"
	case graph.OpReLU, graph.OpReLU6, graph.OpSigmoid, graph.OpTanh,
		graph.OpBatchNorm, graph.OpScale, graph.OpEltwise:
		return "elementwise"
	case graph.OpConcat, graph.OpFlatten, graph.OpReshape, graph.OpPadding,
		graph.OpTranspose, graph.OpDropout:
		return "layout"
	}
	return "other"
}

// gemmShape is one matrix multiply [m×k]·[k×n].
type gemmShape struct{ m, k, n int }

func (s gemmShape) muls() int64 { return int64(s.m) * int64(s.k) * int64(s.n) }

// nodeGEMM returns the GEMM a node lowers to (rows = output pixels or
// tokens, depth = reduced inputs, columns = output channels), or ok=false
// for nodes that are not one dense GEMM (depthwise and grouped convs, the
// per-head attention products, everything that is not a multiply).
func nodeGEMM(n *graph.Node, shapes graph.ShapeMap) (gemmShape, bool) {
	if len(n.Inputs) == 0 || len(n.Outputs) == 0 {
		return gemmShape{}, false
	}
	in, out := shapes[n.Inputs[0]], shapes[n.Outputs[0]]
	if in == nil || out == nil {
		return gemmShape{}, false
	}
	switch n.Op {
	case graph.OpConv2D:
		a := n.Attrs.(*graph.Conv2DAttrs)
		if a.Group > 1 || len(out) != 4 {
			return gemmShape{}, false
		}
		return gemmShape{m: out[0] * out[2] * out[3], k: in[1] * a.KernelH * a.KernelW, n: out[1]}, true
	case graph.OpInnerProduct:
		a := n.Attrs.(*graph.InnerProductAttrs)
		return gemmShape{m: in[0], k: tensor.NumElements(in) / in[0], n: a.OutputCount}, true
	case graph.OpMatMul:
		if a := n.Attrs.(*graph.MatMulAttrs); a.Heads != 0 {
			return gemmShape{}, false
		}
		k := in[len(in)-1]
		return gemmShape{m: tensor.NumElements(in) / k, k: k, n: out[len(out)-1]}, true
	}
	return gemmShape{}, false
}

// nodeMULs counts a node's multiplies. graph.MULCount covers the CNN
// operators; it has no entry for MatMul, whose three forms are counted here
// (the attention forms do Heads products of [LA×dh]·[dh×LB] or
// [LA×LB]·[LB×dh] per batch, which is rows·depth·columns over all heads).
func nodeMULs(n *graph.Node, shapes graph.ShapeMap) int64 {
	if n.Op != graph.OpMatMul {
		return graph.MULCount(n, shapes)
	}
	if g, ok := nodeGEMM(n, shapes); ok {
		return g.muls()
	}
	a, b, out := shapes[n.Inputs[0]], shapes[n.Inputs[1]], shapes[n.Outputs[0]]
	if a == nil || b == nil || out == nil {
		return 0
	}
	attrs := n.Attrs.(*graph.MatMulAttrs)
	if attrs.TransposeB {
		// scores [B, H·LA, LB], each from a dot product of depth D/H.
		return int64(tensor.NumElements(out)) * int64(a[len(a)-1]/attrs.Heads)
	}
	// context [B, LA, D], each from a dot product of depth LB.
	return int64(tensor.NumElements(out)) * int64(b[len(b)-2])
}
