package graph

import (
	"fmt"
	"sort"

	"mnn/internal/tensor"
)

// Node is a single operator instance in the graph.
type Node struct {
	Name    string
	Op      OpType
	Inputs  []string // activation tensor names consumed
	Outputs []string // activation tensor names produced
	// WeightNames references constants in Graph.Weights in the order the
	// kernel expects (e.g. [filter, bias] for Conv2D).
	WeightNames []string
	Attrs       any
}

// Graph is a full network: nodes plus constant weights.
type Graph struct {
	Name    string
	Nodes   []*Node
	Weights map[string]*tensor.Tensor
	// InputNames / OutputNames define the session interface.
	InputNames  []string
	OutputNames []string
	// ActScales holds calibrated per-tensor activation scales (symmetric
	// int8: real ≈ q·scale), keyed by activation tensor name. Populated by
	// quant.Calibrate, persisted by the converter, and consumed by the int8
	// execution path; nil/missing entries make quantized kernels fall back
	// to dynamic per-sample scales.
	ActScales map[string]float32
}

// New creates an empty named graph.
func New(name string) *Graph {
	return &Graph{Name: name, Weights: map[string]*tensor.Tensor{}}
}

// AddWeight registers a constant tensor.
func (g *Graph) AddWeight(name string, t *tensor.Tensor) {
	if _, dup := g.Weights[name]; dup {
		panic(fmt.Sprintf("graph: duplicate weight %q", name))
	}
	g.Weights[name] = t
}

// AddNode appends a node. Nodes must be appended in topological order;
// Validate checks this.
func (g *Graph) AddNode(n *Node) *Node {
	g.Nodes = append(g.Nodes, n)
	return n
}

// Node returns the node with the given name, or nil.
func (g *Graph) Node(name string) *Node {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Producer returns the node producing the named activation, or nil.
func (g *Graph) Producer(tensorName string) *Node {
	for _, n := range g.Nodes {
		for _, o := range n.Outputs {
			if o == tensorName {
				return n
			}
		}
	}
	return nil
}

// Validate checks structural invariants:
//   - node names and output tensor names are unique,
//   - every input is produced by an earlier node (topological order) or is a
//     declared graph input,
//   - weight references resolve,
//   - attribute types match op types,
//   - declared graph outputs exist.
func (g *Graph) Validate() error {
	nodeNames := map[string]bool{}
	produced := map[string]bool{}  // tensors produced by a node (duplicate check)
	available := map[string]bool{} // tensors consumable at the current position
	for _, in := range g.InputNames {
		available[in] = true
	}
	for i, n := range g.Nodes {
		if n.Name == "" {
			return fmt.Errorf("graph %q: node %d has empty name", g.Name, i)
		}
		if nodeNames[n.Name] {
			return fmt.Errorf("graph %q: duplicate node name %q", g.Name, n.Name)
		}
		nodeNames[n.Name] = true
		if err := checkAttrs(n); err != nil {
			return fmt.Errorf("graph %q: node %q: %w", g.Name, n.Name, err)
		}
		if n.Op != OpInput {
			for _, in := range n.Inputs {
				if !available[in] {
					return fmt.Errorf("graph %q: node %q consumes %q before it is produced", g.Name, n.Name, in)
				}
			}
		}
		for _, w := range n.WeightNames {
			if _, ok := g.Weights[w]; !ok {
				return fmt.Errorf("graph %q: node %q references missing weight %q", g.Name, n.Name, w)
			}
		}
		for _, o := range n.Outputs {
			if produced[o] {
				return fmt.Errorf("graph %q: tensor %q produced twice", g.Name, o)
			}
			produced[o] = true
			available[o] = true
		}
	}
	for _, o := range g.OutputNames {
		if !available[o] {
			return fmt.Errorf("graph %q: declared output %q is never produced", g.Name, o)
		}
	}
	return nil
}

func checkAttrs(n *Node) error {
	ok := false
	switch n.Op {
	case OpInput:
		_, ok = n.Attrs.(*InputAttrs)
	case OpConv2D, OpDeconv2D:
		_, ok = n.Attrs.(*Conv2DAttrs)
	case OpPool:
		_, ok = n.Attrs.(*PoolAttrs)
	case OpReLU, OpReLU6, OpSigmoid, OpTanh, OpGELU:
		ok = n.Attrs == nil
	case OpBatchNorm:
		_, ok = n.Attrs.(*BatchNormAttrs)
	case OpScale:
		_, ok = n.Attrs.(*ScaleAttrs)
	case OpEltwise:
		_, ok = n.Attrs.(*EltwiseAttrs)
	case OpConcat:
		_, ok = n.Attrs.(*ConcatAttrs)
	case OpInnerProduct:
		_, ok = n.Attrs.(*InnerProductAttrs)
	case OpSoftmax:
		_, ok = n.Attrs.(*SoftmaxAttrs)
	case OpFlatten:
		_, ok = n.Attrs.(*FlattenAttrs)
	case OpReshape:
		_, ok = n.Attrs.(*ReshapeAttrs)
	case OpDropout:
		_, ok = n.Attrs.(*DropoutAttrs)
	case OpPadding:
		_, ok = n.Attrs.(*PaddingAttrs)
	case OpLayerNorm:
		_, ok = n.Attrs.(*LayerNormAttrs)
	case OpMatMul:
		_, ok = n.Attrs.(*MatMulAttrs)
	case OpTranspose:
		_, ok = n.Attrs.(*TransposeAttrs)
	case OpAttention:
		_, ok = n.Attrs.(*AttentionAttrs)
	default:
		return fmt.Errorf("unknown op type %v", n.Op)
	}
	if !ok {
		return fmt.Errorf("op %v has attrs of type %T", n.Op, n.Attrs)
	}
	return nil
}

// TopoSort returns the nodes reordered topologically (stable for already-
// sorted graphs). It errors on cycles or dangling inputs.
func (g *Graph) TopoSort() ([]*Node, error) {
	producerOf := map[string]*Node{}
	for _, n := range g.Nodes {
		for _, o := range n.Outputs {
			producerOf[o] = n
		}
	}
	isGraphInput := map[string]bool{}
	for _, in := range g.InputNames {
		isGraphInput[in] = true
	}
	indeg := map[*Node]int{}
	dependents := map[*Node][]*Node{}
	for _, n := range g.Nodes {
		indeg[n] = 0
	}
	for _, n := range g.Nodes {
		if n.Op == OpInput {
			continue
		}
		for _, in := range n.Inputs {
			p, ok := producerOf[in]
			if !ok {
				if isGraphInput[in] {
					continue
				}
				return nil, fmt.Errorf("graph %q: tensor %q has no producer", g.Name, in)
			}
			indeg[n]++
			dependents[p] = append(dependents[p], n)
		}
	}
	var ready []*Node
	for _, n := range g.Nodes {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	var order []*Node
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, d := range dependents[n] {
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("graph %q: cycle detected (%d of %d nodes ordered)", g.Name, len(order), len(g.Nodes))
	}
	return order, nil
}

// OpCensus counts nodes per op type, sorted by name for stable output.
func (g *Graph) OpCensus() []struct {
	Op    OpType
	Count int
} {
	counts := map[OpType]int{}
	for _, n := range g.Nodes {
		counts[n.Op]++
	}
	keys := make([]OpType, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	out := make([]struct {
		Op    OpType
		Count int
	}, 0, len(keys))
	for _, k := range keys {
		out = append(out, struct {
			Op    OpType
			Count int
		}{k, counts[k]})
	}
	return out
}

// Clone deep-copies the graph structure. Weight tensors are shared (they are
// immutable by convention); attribute structs are copied shallowly except for
// slices, which are duplicated.
func (g *Graph) Clone() *Graph {
	out := New(g.Name)
	out.InputNames = append([]string(nil), g.InputNames...)
	out.OutputNames = append([]string(nil), g.OutputNames...)
	for k, v := range g.Weights {
		out.Weights[k] = v
	}
	if g.ActScales != nil {
		out.ActScales = make(map[string]float32, len(g.ActScales))
		for k, v := range g.ActScales {
			out.ActScales[k] = v
		}
	}
	for _, n := range g.Nodes {
		out.Nodes = append(out.Nodes, cloneNode(n))
	}
	return out
}

func cloneNode(n *Node) *Node {
	c := &Node{
		Name:        n.Name,
		Op:          n.Op,
		Inputs:      append([]string(nil), n.Inputs...),
		Outputs:     append([]string(nil), n.Outputs...),
		WeightNames: append([]string(nil), n.WeightNames...),
	}
	switch a := n.Attrs.(type) {
	case *InputAttrs:
		c.Attrs = &InputAttrs{Shape: append([]int(nil), a.Shape...)}
	case *Conv2DAttrs:
		cp := *a
		c.Attrs = &cp
	case *PoolAttrs:
		cp := *a
		c.Attrs = &cp
	case *BatchNormAttrs:
		cp := *a
		c.Attrs = &cp
	case *ScaleAttrs:
		cp := *a
		c.Attrs = &cp
	case *EltwiseAttrs:
		cp := *a
		c.Attrs = &cp
	case *ConcatAttrs:
		cp := *a
		c.Attrs = &cp
	case *InnerProductAttrs:
		cp := *a
		c.Attrs = &cp
	case *SoftmaxAttrs:
		cp := *a
		c.Attrs = &cp
	case *FlattenAttrs:
		cp := *a
		c.Attrs = &cp
	case *ReshapeAttrs:
		c.Attrs = &ReshapeAttrs{Shape: append([]int(nil), a.Shape...)}
	case *DropoutAttrs:
		cp := *a
		c.Attrs = &cp
	case *PaddingAttrs:
		cp := *a
		c.Attrs = &cp
	case *LayerNormAttrs:
		cp := *a
		c.Attrs = &cp
	case *MatMulAttrs:
		cp := *a
		c.Attrs = &cp
	case *TransposeAttrs:
		c.Attrs = &TransposeAttrs{Perm: append([]int(nil), a.Perm...)}
	case *AttentionAttrs:
		cp := *a
		c.Attrs = &cp
	case nil:
		c.Attrs = nil
	default:
		panic(fmt.Sprintf("graph: cloneNode: unknown attrs %T", n.Attrs))
	}
	return c
}
