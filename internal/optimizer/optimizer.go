// Package optimizer implements the offline graph optimizations of Figure 2:
// operator fusion (Conv+BatchNorm, Conv+Scale, Conv+ReLU/ReLU6,
// Eltwise+ReLU), operator replacement (BatchNorm → Scale) and identity
// elimination (Dropout). These run in the converter, before the model ships
// to devices.
package optimizer

import (
	"fmt"
	"math"

	"mnn/internal/graph"
	"mnn/internal/tensor"
)

// Pass is one rewrite; it reports whether it changed the graph.
type Pass func(g *graph.Graph) (bool, error)

// Optimize runs the standard pass pipeline to a fixed point (bounded).
func Optimize(g *graph.Graph) error {
	passes := []struct {
		name string
		fn   Pass
	}{
		{"drop-dropout", DropDropout},
		{"fold-bn-into-conv", FoldBatchNormIntoConv},
		{"replace-bn-with-scale", ReplaceBatchNormWithScale},
		{"fold-scale-into-conv", FoldScaleIntoConv},
		{"fuse-activation", FuseActivation},
	}
	// Each pass rewrites at most one site per call; drive every pass to its
	// own fixed point, then repeat the pipeline until nothing changes
	// (a pass can expose new opportunities for an earlier one).
	maxRewrites := 4 * len(g.Nodes)
	for iter := 0; iter < 4; iter++ {
		changed := false
		for _, p := range passes {
			for rewrites := 0; ; rewrites++ {
				if rewrites > maxRewrites {
					return fmt.Errorf("optimizer: pass %s did not converge", p.name)
				}
				c, err := p.fn(g)
				if err != nil {
					return fmt.Errorf("optimizer: pass %s: %w", p.name, err)
				}
				if !c {
					break
				}
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return g.Validate()
}

// soleConsumerIndex returns the index of the unique consumer node of tensor
// name, or -1 if the tensor has other consumers or is a graph output.
func soleConsumerIndex(g *graph.Graph, name string) int {
	for _, o := range g.OutputNames {
		if o == name {
			return -1
		}
	}
	idx := -1
	for i, n := range g.Nodes {
		for _, in := range n.Inputs {
			if in == name {
				if idx >= 0 {
					return -1
				}
				idx = i
			}
		}
	}
	return idx
}

// removeNode deletes node i, rewiring its single input to its consumers.
func removeNode(g *graph.Graph, i int) {
	n := g.Nodes[i]
	from := n.Outputs[0]
	to := n.Inputs[0]
	for _, m := range g.Nodes {
		for j, in := range m.Inputs {
			if in == from {
				m.Inputs[j] = to
			}
		}
	}
	for j, o := range g.OutputNames {
		if o == from {
			g.OutputNames[j] = to
		}
	}
	g.Nodes = append(g.Nodes[:i], g.Nodes[i+1:]...)
}

// FuseAttention replaces every attention triple of g whose three nodes
// keep accepts with one graph.OpAttention node: a QK MatMul (TransposeB,
// Heads h) whose only consumer is a last-axis Softmax, whose only consumer
// is an AV MatMul (Heads h) reading the probabilities as input 0, with the
// values as wide as the queries. Neither the scores nor the probabilities
// may be a graph output. The fused node keeps the QK node's name, reads q,
// k and v, writes the AV node's output and takes the AV node's place in the
// order (every input is produced by then). It reports how many triples it
// fused.
//
// This is not one of Optimize's passes: OpAttention is a session's own
// node, made after backend selection (keep says which nodes run on the
// CPU) and never written to a model. One pass counts every tensor's
// consumers, a second rewrites.
func FuseAttention(g *graph.Graph, shapes graph.ShapeMap, keep func(*graph.Node) bool) int {
	sole := soleProducers(g)
	drop := map[*graph.Node]bool{}
	fused := 0
	for i, av := range g.Nodes {
		avA, ok := av.Attrs.(*graph.MatMulAttrs)
		if av.Op != graph.OpMatMul || !ok || avA.Heads < 1 || avA.TransposeB || len(av.Inputs) != 2 {
			continue
		}
		sm := sole(av.Inputs[0])
		if sm == nil || sm.Op != graph.OpSoftmax || len(sm.Inputs) != 1 {
			continue
		}
		if axis := sm.Attrs.(*graph.SoftmaxAttrs).Axis; axis != -1 && axis != 2 {
			continue // scores are rank 3: the last axis is 2
		}
		qk := sole(sm.Inputs[0])
		if qk == nil || qk.Op != graph.OpMatMul || len(qk.Inputs) != 2 {
			continue
		}
		qkA := qk.Attrs.(*graph.MatMulAttrs)
		if !qkA.TransposeB || qkA.Heads != avA.Heads {
			continue
		}
		if q, v := shapes[qk.Inputs[0]], shapes[av.Inputs[1]]; len(q) != 3 || len(v) != 3 || q[2] != v[2] {
			continue
		}
		if !keep(qk) || !keep(sm) || !keep(av) {
			continue
		}
		g.Nodes[i] = &graph.Node{
			Name: qk.Name, Op: graph.OpAttention,
			Inputs:  []string{qk.Inputs[0], qk.Inputs[1], av.Inputs[1]},
			Outputs: []string{av.Outputs[0]},
			Attrs:   &graph.AttentionAttrs{Heads: qkA.Heads, QKScale: qkA.Scale, AVScale: avA.Scale},
		}
		drop[qk], drop[sm] = true, true
		fused++
	}
	dropNodes(g, drop)
	return fused
}

// FuseResidual makes each weight-form MatMul whose output only a residual
// add reads store that sum itself: a two-input EltSum without ReLU over
// inputs of equal shapes, one of them the output of a MatMul (Heads 0, no
// residual yet) that nothing else reads. keep must accept both nodes, and
// neither output may be a graph output. The MatMul keeps its name (its
// prepared weights are keyed by it), reads its activation and the add's
// other input, writes the add's output in the add's operand order
// (graph.Residual) and takes the add's place in the order, where every
// input is produced. It reports how many adds it fused.
//
// Like FuseAttention it is a session's own rewrite, made after backend
// selection and never written to a model.
func FuseResidual(g *graph.Graph, shapes graph.ShapeMap, keep func(*graph.Node) bool) int {
	sole := soleProducers(g)
	outputs := map[string]bool{}
	for _, o := range g.OutputNames {
		outputs[o] = true
	}
	drop := map[*graph.Node]bool{}
	fused := 0
	for i, add := range g.Nodes {
		ea, ok := add.Attrs.(*graph.EltwiseAttrs)
		if add.Op != graph.OpEltwise || !ok || ea.Type != graph.EltSum || ea.ReLU || len(add.Inputs) != 2 ||
			outputs[add.Outputs[0]] || !keep(add) || !tensor.EqualShape(shapes[add.Inputs[0]], shapes[add.Inputs[1]]) {
			continue
		}
		for j, order := range []graph.Residual{graph.ResidualAfter, graph.ResidualBefore} {
			mm := sole(add.Inputs[j])
			if mm == nil || mm.Op != graph.OpMatMul || len(mm.Inputs) != 1 || !keep(mm) {
				continue
			}
			attrs := *mm.Attrs.(*graph.MatMulAttrs)
			if attrs.Heads != 0 || attrs.Residual != graph.NoResidual {
				continue
			}
			attrs.Residual = order
			g.Nodes[i] = &graph.Node{
				Name: mm.Name, Op: graph.OpMatMul,
				Inputs:      []string{mm.Inputs[0], add.Inputs[1-j]},
				Outputs:     []string{add.Outputs[0]},
				WeightNames: mm.WeightNames,
				Attrs:       &attrs,
			}
			drop[mm] = true
			fused++
			break
		}
	}
	dropNodes(g, drop)
	return fused
}

// soleProducers returns the function that gives the producer of a tensor
// of g read exactly once, and nil for any other: a graph output is never a
// sole-consumer intermediate.
func soleProducers(g *graph.Graph) func(name string) *graph.Node {
	uses := map[string]int{}
	producer := map[string]*graph.Node{}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			uses[in]++
		}
		for _, o := range n.Outputs {
			producer[o] = n
		}
	}
	for _, o := range g.OutputNames {
		uses[o]++
	}
	return func(name string) *graph.Node {
		if uses[name] != 1 {
			return nil
		}
		return producer[name]
	}
}

// dropNodes removes the nodes in drop from g, keeping the others' order.
func dropNodes(g *graph.Graph, drop map[*graph.Node]bool) {
	if len(drop) == 0 {
		return
	}
	kept := g.Nodes[:0]
	for _, n := range g.Nodes {
		if !drop[n] {
			kept = append(kept, n)
		}
	}
	g.Nodes = kept
}

// DropDropout removes inference-time identity Dropout nodes.
func DropDropout(g *graph.Graph) (bool, error) {
	for i, n := range g.Nodes {
		if n.Op == graph.OpDropout {
			removeNode(g, i)
			return true, nil
		}
	}
	return false, nil
}

// bnScaleShift extracts the folded (scale, shift) of a BatchNorm node.
func bnScaleShift(g *graph.Graph, n *graph.Node) (scale, shift []float32, err error) {
	if len(n.WeightNames) != 4 {
		return nil, nil, fmt.Errorf("BatchNorm %q has %d weights, want 4", n.Name, len(n.WeightNames))
	}
	a := n.Attrs.(*graph.BatchNormAttrs)
	gamma := g.Weights[n.WeightNames[0]].Data()
	beta := g.Weights[n.WeightNames[1]].Data()
	mean := g.Weights[n.WeightNames[2]].Data()
	variance := g.Weights[n.WeightNames[3]].Data()
	c := len(gamma)
	scale = make([]float32, c)
	shift = make([]float32, c)
	for i := 0; i < c; i++ {
		s := gamma[i] / float32(math.Sqrt(float64(variance[i]+a.Eps)))
		scale[i] = s
		shift[i] = beta[i] - s*mean[i]
	}
	return scale, shift, nil
}

// scaleConvWeights rewrites conv weights in place: W'[o,...] = W[o,...]·s[o],
// b'[o] = b[o]·s[o] + t[o]. Adds a bias weight if the conv had none.
func scaleConvWeights(g *graph.Graph, conv *graph.Node, scale, shift []float32) {
	w := g.Weights[conv.WeightNames[0]]
	oc := w.Dim(0)
	per := w.NumElements() / oc
	// Clone: weights may be shared between graphs.
	nw := w.Clone()
	d := nw.Data()
	for o := 0; o < oc; o++ {
		for i := 0; i < per; i++ {
			d[o*per+i] *= scale[o]
		}
	}
	wName := conv.WeightNames[0] + "_fused"
	if _, exists := g.Weights[wName]; !exists {
		g.AddWeight(wName, nw)
	} else {
		g.Weights[wName] = nw
	}
	conv.WeightNames[0] = wName

	var bias *tensor.Tensor
	if len(conv.WeightNames) > 1 {
		bias = g.Weights[conv.WeightNames[1]].Clone()
	} else {
		bias = tensor.New(oc)
	}
	bd := bias.Data()
	for o := 0; o < oc; o++ {
		bd[o] = bd[o]*scale[o] + shift[o]
	}
	bName := conv.Name + "_bias_fused"
	if _, exists := g.Weights[bName]; !exists {
		g.AddWeight(bName, bias)
	} else {
		g.Weights[bName] = bias
	}
	if len(conv.WeightNames) > 1 {
		conv.WeightNames[1] = bName
	} else {
		conv.WeightNames = append(conv.WeightNames, bName)
	}
}

// FoldBatchNormIntoConv fuses Conv2D→BatchNorm chains when the conv output
// feeds only the BN.
func FoldBatchNormIntoConv(g *graph.Graph) (bool, error) {
	for i, n := range g.Nodes {
		if n.Op != graph.OpBatchNorm {
			continue
		}
		prod := g.Producer(n.Inputs[0])
		if prod == nil || prod.Op != graph.OpConv2D {
			continue
		}
		a := prod.Attrs.(*graph.Conv2DAttrs)
		if a.ReLU || a.ReLU6 {
			continue // activation already fused; BN after activation can't fold
		}
		ci := soleConsumerIndex(g, prod.Outputs[0])
		if ci < 0 || g.Nodes[ci] != n {
			continue
		}
		scale, shift, err := bnScaleShift(g, n)
		if err != nil {
			return false, err
		}
		scaleConvWeights(g, prod, scale, shift)
		removeNode(g, i)
		return true, nil
	}
	return false, nil
}

// FoldScaleIntoConv fuses Conv2D→Scale chains.
func FoldScaleIntoConv(g *graph.Graph) (bool, error) {
	for i, n := range g.Nodes {
		if n.Op != graph.OpScale {
			continue
		}
		prod := g.Producer(n.Inputs[0])
		if prod == nil || prod.Op != graph.OpConv2D {
			continue
		}
		a := prod.Attrs.(*graph.Conv2DAttrs)
		if a.ReLU || a.ReLU6 {
			continue
		}
		ci := soleConsumerIndex(g, prod.Outputs[0])
		if ci < 0 || g.Nodes[ci] != n {
			continue
		}
		sa := n.Attrs.(*graph.ScaleAttrs)
		scale := g.Weights[n.WeightNames[0]].Data()
		oc := len(scale)
		shift := make([]float32, oc)
		if sa.HasBias && len(n.WeightNames) > 1 {
			copy(shift, g.Weights[n.WeightNames[1]].Data())
		}
		scaleConvWeights(g, prod, scale, shift)
		removeNode(g, i)
		return true, nil
	}
	return false, nil
}

// ReplaceBatchNormWithScale rewrites remaining BatchNorm nodes (those not
// behind a conv) into the cheaper folded Scale form — an operator
// replacement in the paper's taxonomy.
func ReplaceBatchNormWithScale(g *graph.Graph) (bool, error) {
	for _, n := range g.Nodes {
		if n.Op != graph.OpBatchNorm {
			continue
		}
		scale, shift, err := bnScaleShift(g, n)
		if err != nil {
			return false, err
		}
		sName := n.Name + "_scale_w"
		bName := n.Name + "_scale_b"
		if _, exists := g.Weights[sName]; !exists {
			g.AddWeight(sName, tensor.FromData(scale, len(scale)))
			g.AddWeight(bName, tensor.FromData(shift, len(shift)))
		} else {
			g.Weights[sName] = tensor.FromData(scale, len(scale))
			g.Weights[bName] = tensor.FromData(shift, len(shift))
		}
		n.Op = graph.OpScale
		n.WeightNames = []string{sName, bName}
		n.Attrs = &graph.ScaleAttrs{HasBias: true}
		return true, nil
	}
	return false, nil
}

// FuseActivation folds ReLU/ReLU6 nodes into a producing Conv2D, Eltwise or
// InnerProduct.
func FuseActivation(g *graph.Graph) (bool, error) {
	for i, n := range g.Nodes {
		if n.Op != graph.OpReLU && n.Op != graph.OpReLU6 {
			continue
		}
		prod := g.Producer(n.Inputs[0])
		if prod == nil {
			continue
		}
		ci := soleConsumerIndex(g, prod.Outputs[0])
		if ci < 0 || g.Nodes[ci] != n {
			continue
		}
		switch prod.Op {
		case graph.OpConv2D, graph.OpDeconv2D:
			a := prod.Attrs.(*graph.Conv2DAttrs)
			if a.ReLU || a.ReLU6 {
				continue
			}
			if n.Op == graph.OpReLU {
				a.ReLU = true
			} else {
				a.ReLU6 = true
			}
		case graph.OpEltwise:
			if n.Op != graph.OpReLU {
				continue
			}
			a := prod.Attrs.(*graph.EltwiseAttrs)
			if a.ReLU {
				continue
			}
			a.ReLU = true
		case graph.OpInnerProduct:
			if n.Op != graph.OpReLU {
				continue
			}
			a := prod.Attrs.(*graph.InnerProductAttrs)
			if a.ReLU {
				continue
			}
			a.ReLU = true
		default:
			continue
		}
		removeNode(g, i)
		return true, nil
	}
	return false, nil
}
