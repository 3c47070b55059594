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

// PlanInt8 partitions a graph for int8 execution: every operator the int8
// kernel set covers (see core.Int8ConvSupported; plus fully-connected
// layers) is marked int8, everything else stays fp32. The engine's CPU
// backend consumes the plan when the engine is opened with
// mnn.WithPrecision(mnn.PrecisionInt8). inputShapes optionally overrides
// the declared input shapes (the engine passes its WithInputShapes
// overrides) — scheme selection, and therefore the partition, depends on
// the shapes the session will actually run.
func PlanInt8(g *graph.Graph, inputShapes map[string][]int) (*Int8Plan, error) {
	return PlanInt8With(g, inputShapes, nil)
}

// PlanInt8With is PlanInt8 with an explicit per-convolution scheme resolver.
// When a tuner overrides the Equation 2–3 heuristic, the int8 partition must
// be computed from the schemes that will actually run — Int8ConvSupported
// depends on the algorithm — or the offline plan and the runtime dispatch
// would drift. A nil schemeFor falls back to core.SelectConvScheme.
func PlanInt8With(g *graph.Graph, inputShapes map[string][]int, schemeFor func(n *graph.Node, inShape []int) core.ConvDecision) (*Int8Plan, error) {
	shapes, err := graph.InferShapes(g, inputShapes)
	if err != nil {
		return nil, fmt.Errorf("optimizer: int8 plan: %w", err)
	}
	if schemeFor == nil {
		schemeFor = func(n *graph.Node, inShape []int) core.ConvDecision {
			return core.SelectConvScheme(n.Attrs.(*graph.Conv2DAttrs), inShape)
		}
	}
	plan := &Int8Plan{Int8: map[string]bool{}, NonNegActs: nonNegActs(g)}
	int8Producer := map[string]bool{} // tensor name → produced by an int8 node
	for _, n := range g.Nodes {
		if n.Op == graph.OpInput {
			continue
		}
		isInt8 := false
		switch n.Op {
		case graph.OpConv2D:
			a := n.Attrs.(*graph.Conv2DAttrs)
			dec := schemeFor(n, shapes[n.Inputs[0]])
			isInt8 = core.Int8ConvSupported(a, dec)
		case graph.OpInnerProduct:
			isInt8 = true
		}
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
	return plan, nil
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
