package optimizer

import (
	"fmt"

	"mnn/internal/core"
	"mnn/internal/graph"
)

// Int8Plan is the offline precision partition of a graph for int8
// execution: which nodes run on the prepared int8 kernels and where the
// quant/dequant boundaries fall. The runtime kernels fuse the boundary work
// (activations are quantized at int8-kernel entry and requantized on exit),
// so the boundaries never materialize as standalone graph nodes — the plan
// records where they act, and the counts feed diagnostics and the bench
// report.
type Int8Plan struct {
	// Int8 maps node name → true when the node executes on int8 kernels.
	Int8 map[string]bool
	// Int8Nodes / FP32Nodes partition the op count (inputs excluded).
	Int8Nodes, FP32Nodes int
	// QuantBoundaries counts fp32→int8 edges (an activation quantized on
	// kernel entry); DequantBoundaries counts int8→fp32 edges, including
	// int8 nodes feeding graph outputs.
	QuantBoundaries, DequantBoundaries int
	// Calibrated counts int8 nodes whose first input carries a calibrated
	// activation scale; the rest fall back to per-sample dynamic scales.
	Calibrated int
	// NonNegActs marks activation tensors that are provably non-negative
	// (post-ReLU/ReLU6/sigmoid chains). Int8 kernels consuming them quantize
	// unsigned: the same step with twice the headroom above the scale.
	NonNegActs map[string]bool
}

// PlanInt8 partitions a graph for int8 execution at the heuristic's
// decisions: every convolution the int8 tap GEMM runs cheaper than its fp32
// scheme on this host's int8 level (core.Int8ConvSupported), and every
// fully-connected layer, is marked int8; everything else stays fp32.
// inputShapes optionally overrides the declared input shapes — scheme
// selection, and therefore the partition, depends on the shapes the session
// will actually run. Shapes are inferred, and the convolutions decided, on
// a copy: inference fills in unset input channel counts, and g stays as the
// caller holds it (the plan is keyed by node and tensor names), so callers
// may plan one graph at once.
func PlanInt8(g *graph.Graph, inputShapes map[string][]int) (*Int8Plan, error) {
	c := g.Clone()
	shapes, err := graph.InferShapes(c, inputShapes)
	if err != nil {
		return nil, fmt.Errorf("optimizer: int8 plan: %w", err)
	}
	return PlanInt8With(c, core.DecideConvs(c, shapes, nil, true)), nil
}

// PlanInt8With partitions a graph for int8 execution at an engine's conv
// decisions (core.DecideConvs at int8): the convolutions routed to the int8
// tap GEMM and every fully-connected layer are marked int8. An engine opened
// with mnn.WithPrecision(mnn.PrecisionInt8) hands the partition to its CPU
// backend.
func PlanInt8With(g *graph.Graph, convs core.ConvRoutes) *Int8Plan {
	plan := &Int8Plan{Int8: map[string]bool{}, NonNegActs: nonNegActs(g)}
	int8Producer := map[string]bool{} // tensor name → produced by an int8 node
	for _, n := range g.Nodes {
		if n.Op == graph.OpInput {
			continue
		}
		isInt8 := n.Op == graph.OpInnerProduct || convs[n.Name].Int8
		if isInt8 {
			plan.Int8[n.Name] = true
			plan.Int8Nodes++
			if g.ActScales[n.Inputs[0]] > 0 {
				plan.Calibrated++
			}
			for _, in := range n.Inputs {
				if !int8Producer[in] {
					plan.QuantBoundaries++
				}
			}
		} else {
			plan.FP32Nodes++
			for _, in := range n.Inputs {
				if int8Producer[in] {
					plan.DequantBoundaries++
				}
			}
		}
		for _, o := range n.Outputs {
			int8Producer[o] = isInt8
		}
	}
	for _, o := range g.OutputNames {
		if int8Producer[o] {
			plan.DequantBoundaries++
		}
	}
	return plan
}

// nonNegActs runs a forward dataflow pass proving which activation tensors
// cannot hold negative values: ReLU-family outputs, and value-preserving or
// monotone ops (pool, concat, pad, reshape, non-subtracting eltwise) whose
// inputs are all non-negative. The analysis is sound, not complete — an
// unproven tensor just uses the signed quantization path.
func nonNegActs(g *graph.Graph) map[string]bool {
	nonNeg := map[string]bool{}
	allIn := func(n *graph.Node) bool {
		for _, in := range n.Inputs {
			if !nonNeg[in] {
				return false
			}
		}
		return true
	}
	for _, n := range g.Nodes {
		v := false
		switch n.Op {
		case graph.OpReLU, graph.OpReLU6, graph.OpSigmoid, graph.OpSoftmax:
			v = true
		case graph.OpConv2D, graph.OpDeconv2D:
			a := n.Attrs.(*graph.Conv2DAttrs)
			v = a.ReLU || a.ReLU6
		case graph.OpInnerProduct:
			v = n.Attrs.(*graph.InnerProductAttrs).ReLU
		case graph.OpEltwise:
			a := n.Attrs.(*graph.EltwiseAttrs)
			v = a.ReLU || (a.Type != graph.EltSub && allIn(n))
		case graph.OpPool, graph.OpConcat, graph.OpPadding,
			graph.OpFlatten, graph.OpReshape, graph.OpDropout:
			v = allIn(n)
		}
		for _, o := range n.Outputs {
			nonNeg[o] = v
		}
	}
	return nonNeg
}
