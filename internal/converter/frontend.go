package converter

import (
	"encoding/json"
	"fmt"
	"io"

	"mnn/internal/graph"
	"mnn/internal/tensor"
)

// The JSON frontend is a minimal stand-in for the ONNX/TF/Caffe importers of
// the real converter (those formats need protobuf, unavailable offline; see
// DESIGN.md). It is expressive enough to describe every network in the
// benchmark zoo.

// jsonModel is the top-level document.
type jsonModel struct {
	Name    string       `json:"name"`
	Inputs  []string     `json:"inputs"`
	Outputs []string     `json:"outputs"`
	Nodes   []jsonNode   `json:"nodes"`
	Weights []jsonWeight `json:"weights"`
}

type jsonNode struct {
	Name    string          `json:"name"`
	Op      string          `json:"op"`
	Inputs  []string        `json:"inputs,omitempty"`
	Outputs []string        `json:"outputs,omitempty"`
	Weights []string        `json:"weights,omitempty"`
	Attrs   json.RawMessage `json:"attrs,omitempty"`
}

type jsonWeight struct {
	Name  string    `json:"name"`
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data,omitempty"`
	// Init "random" generates deterministic synthetic values.
	Init  string  `json:"init,omitempty"`
	Seed  uint64  `json:"seed,omitempty"`
	Scale float32 `json:"scale,omitempty"`
}

type jsonConvAttrs struct {
	Kernel   []int  `json:"kernel"` // [kh, kw] or [k]
	Stride   []int  `json:"stride,omitempty"`
	Pad      []int  `json:"pad,omitempty"`
	PadMode  string `json:"pad_mode,omitempty"` // "same"/"valid"/"" (explicit)
	Dilation []int  `json:"dilation,omitempty"`
	Group    int    `json:"group,omitempty"`
	Outputs  int    `json:"outputs"`
	ReLU     bool   `json:"relu,omitempty"`
	ReLU6    bool   `json:"relu6,omitempty"`
}

type jsonPoolAttrs struct {
	Type   string `json:"type"` // "max"/"avg"
	Kernel []int  `json:"kernel,omitempty"`
	Stride []int  `json:"stride,omitempty"`
	Pad    []int  `json:"pad,omitempty"`
	Global bool   `json:"global,omitempty"`
}

func pair(v []int, def int) (int, int) {
	switch len(v) {
	case 0:
		return def, def
	case 1:
		return v[0], v[0]
	default:
		return v[0], v[1]
	}
}

// ParseJSON reads the frontend format into a graph.
func ParseJSON(in io.Reader) (*graph.Graph, error) {
	var m jsonModel
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("converter: frontend parse: %w", err)
	}
	g := graph.New(m.Name)
	g.InputNames = m.Inputs
	g.OutputNames = m.Outputs

	for _, w := range m.Weights {
		t := tensor.New(w.Shape...)
		switch {
		case len(w.Data) > 0:
			if len(w.Data) != t.NumElements() {
				return nil, fmt.Errorf("converter: weight %q data length %d != shape %v", w.Name, len(w.Data), w.Shape)
			}
			copy(t.Data(), w.Data)
		case w.Init == "random":
			scale := w.Scale
			if scale == 0 {
				scale = 0.1
			}
			tensor.FillRandom(t, w.Seed, scale)
		case w.Init == "zeros" || w.Init == "":
			// already zero
		default:
			return nil, fmt.Errorf("converter: weight %q has unknown init %q", w.Name, w.Init)
		}
		g.AddWeight(w.Name, t)
	}

	for _, jn := range m.Nodes {
		op, err := graph.ParseOpType(jn.Op)
		if err != nil {
			return nil, fmt.Errorf("converter: node %q: %w", jn.Name, err)
		}
		n := &graph.Node{Name: jn.Name, Op: op, Inputs: jn.Inputs, Outputs: jn.Outputs, WeightNames: jn.Weights}
		if len(n.Outputs) == 0 {
			n.Outputs = []string{jn.Name}
		}
		if err := parseJSONAttrs(n, jn.Attrs); err != nil {
			return nil, fmt.Errorf("converter: node %q: %w", jn.Name, err)
		}
		g.AddNode(n)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("converter: frontend graph invalid: %w", err)
	}
	return g, nil
}

func parseJSONAttrs(n *graph.Node, raw json.RawMessage) error {
	unmarshal := func(v any) error {
		if raw == nil {
			return fmt.Errorf("op %v requires attrs", n.Op)
		}
		return json.Unmarshal(raw, v)
	}
	switch n.Op {
	case graph.OpInput:
		var a struct {
			Shape []int `json:"shape"`
		}
		if err := unmarshal(&a); err != nil {
			return err
		}
		n.Attrs = &graph.InputAttrs{Shape: a.Shape}
	case graph.OpConv2D, graph.OpDeconv2D:
		var a jsonConvAttrs
		if err := unmarshal(&a); err != nil {
			return err
		}
		kh, kw := pair(a.Kernel, 1)
		sh, sw := pair(a.Stride, 1)
		ph, pw := pair(a.Pad, 0)
		dh, dw := pair(a.Dilation, 1)
		mode := graph.PadExplicit
		switch a.PadMode {
		case "same":
			mode = graph.PadSame
		case "valid":
			mode = graph.PadValid
		case "":
		default:
			return fmt.Errorf("unknown pad_mode %q", a.PadMode)
		}
		group := a.Group
		if group == 0 {
			group = 1
		}
		n.Attrs = &graph.Conv2DAttrs{
			KernelH: kh, KernelW: kw, StrideH: sh, StrideW: sw,
			DilationH: dh, DilationW: dw, PadH: ph, PadW: pw, PadMode: mode,
			Group: group, OutputCount: a.Outputs, ReLU: a.ReLU, ReLU6: a.ReLU6,
		}
	case graph.OpPool:
		var a jsonPoolAttrs
		if err := unmarshal(&a); err != nil {
			return err
		}
		kh, kw := pair(a.Kernel, 1)
		sh, sw := pair(a.Stride, 1)
		ph, pw := pair(a.Pad, 0)
		pt := graph.MaxPool
		if a.Type == "avg" {
			pt = graph.AvgPool
		} else if a.Type != "max" && a.Type != "" {
			return fmt.Errorf("unknown pool type %q", a.Type)
		}
		n.Attrs = &graph.PoolAttrs{Type: pt, KernelH: kh, KernelW: kw,
			StrideH: sh, StrideW: sw, PadH: ph, PadW: pw, Global: a.Global}
	case graph.OpBatchNorm:
		var a struct {
			Eps float32 `json:"eps"`
		}
		if raw != nil {
			if err := json.Unmarshal(raw, &a); err != nil {
				return err
			}
		}
		if a.Eps == 0 {
			a.Eps = 1e-5
		}
		n.Attrs = &graph.BatchNormAttrs{Eps: a.Eps}
	case graph.OpScale:
		n.Attrs = &graph.ScaleAttrs{HasBias: len(n.WeightNames) > 1}
	case graph.OpEltwise:
		var a struct {
			Type string `json:"type"`
		}
		if raw != nil {
			if err := json.Unmarshal(raw, &a); err != nil {
				return err
			}
		}
		et := graph.EltSum
		switch a.Type {
		case "", "sum":
		case "prod":
			et = graph.EltProd
		case "max":
			et = graph.EltMax
		case "sub":
			et = graph.EltSub
		default:
			return fmt.Errorf("unknown eltwise type %q", a.Type)
		}
		n.Attrs = &graph.EltwiseAttrs{Type: et}
	case graph.OpConcat:
		var a struct {
			Axis int `json:"axis"`
		}
		if raw != nil {
			if err := json.Unmarshal(raw, &a); err != nil {
				return err
			}
		} else {
			a.Axis = 1
		}
		n.Attrs = &graph.ConcatAttrs{Axis: a.Axis}
	case graph.OpInnerProduct:
		var a struct {
			Outputs int  `json:"outputs"`
			ReLU    bool `json:"relu"`
		}
		if err := unmarshal(&a); err != nil {
			return err
		}
		n.Attrs = &graph.InnerProductAttrs{OutputCount: a.Outputs, ReLU: a.ReLU}
	case graph.OpSoftmax:
		var a struct {
			Axis int `json:"axis"`
		}
		if raw != nil {
			if err := json.Unmarshal(raw, &a); err != nil {
				return err
			}
		} else {
			a.Axis = 1
		}
		n.Attrs = &graph.SoftmaxAttrs{Axis: a.Axis}
	case graph.OpFlatten:
		var a struct {
			Axis int `json:"axis"`
		}
		if raw != nil {
			if err := json.Unmarshal(raw, &a); err != nil {
				return err
			}
		} else {
			a.Axis = 1
		}
		n.Attrs = &graph.FlattenAttrs{Axis: a.Axis}
	case graph.OpReshape:
		var a struct {
			Shape []int `json:"shape"`
		}
		if err := unmarshal(&a); err != nil {
			return err
		}
		n.Attrs = &graph.ReshapeAttrs{Shape: a.Shape}
	case graph.OpDropout:
		n.Attrs = &graph.DropoutAttrs{Ratio: 0.5}
	case graph.OpPadding:
		var a struct {
			Top, Bottom, Left, Right int
		}
		if err := unmarshal(&a); err != nil {
			return err
		}
		n.Attrs = &graph.PaddingAttrs{Top: a.Top, Bottom: a.Bottom, Left: a.Left, Right: a.Right}
	case graph.OpLayerNorm:
		var a struct {
			Eps float32 `json:"eps"`
		}
		if raw != nil {
			if err := json.Unmarshal(raw, &a); err != nil {
				return err
			}
		}
		if a.Eps == 0 {
			a.Eps = 1e-5
		}
		n.Attrs = &graph.LayerNormAttrs{Eps: a.Eps}
	case graph.OpMatMul:
		var a struct {
			Heads      int     `json:"heads"`
			TransposeB bool    `json:"transpose_b"`
			Scale      float32 `json:"scale"`
		}
		if raw != nil {
			if err := json.Unmarshal(raw, &a); err != nil {
				return err
			}
		}
		n.Attrs = &graph.MatMulAttrs{Heads: a.Heads, TransposeB: a.TransposeB, Scale: a.Scale}
	case graph.OpTranspose:
		var a struct {
			Perm []int `json:"perm"`
		}
		if err := unmarshal(&a); err != nil {
			return err
		}
		n.Attrs = &graph.TransposeAttrs{Perm: a.Perm}
	case graph.OpReLU, graph.OpReLU6, graph.OpSigmoid, graph.OpTanh, graph.OpGELU:
		n.Attrs = nil
	default:
		return fmt.Errorf("unsupported op %v", n.Op)
	}
	return nil
}

// ExportJSON writes a graph in the frontend format (weights inlined), so
// round-trip tests and tooling can regenerate sources.
func ExportJSON(g *graph.Graph, out io.Writer) error {
	m := jsonModel{Name: g.Name, Inputs: g.InputNames, Outputs: g.OutputNames}
	for _, n := range g.Nodes {
		jn := jsonNode{Name: n.Name, Op: n.Op.String(), Inputs: n.Inputs,
			Outputs: n.Outputs, Weights: n.WeightNames}
		attrs, err := exportAttrs(n)
		if err != nil {
			return err
		}
		jn.Attrs = attrs
		m.Nodes = append(m.Nodes, jn)
	}
	for _, name := range sortedWeightNames(g) {
		t := g.Weights[name]
		if t.DType() != tensor.Float32 {
			return fmt.Errorf("converter: ExportJSON supports float32 weights only (%q is %v)", name, t.DType())
		}
		m.Weights = append(m.Weights, jsonWeight{Name: name, Shape: t.Shape(), Data: t.Data()})
	}
	enc := json.NewEncoder(out)
	return enc.Encode(&m)
}

func exportAttrs(n *graph.Node) (json.RawMessage, error) {
	var v any
	switch a := n.Attrs.(type) {
	case *graph.InputAttrs:
		v = map[string]any{"shape": a.Shape}
	case *graph.Conv2DAttrs:
		mode := ""
		switch a.PadMode {
		case graph.PadSame:
			mode = "same"
		case graph.PadValid:
			mode = "valid"
		}
		v = jsonConvAttrs{Kernel: []int{a.KernelH, a.KernelW},
			Stride: []int{a.StrideH, a.StrideW}, Pad: []int{a.PadH, a.PadW},
			PadMode: mode, Dilation: []int{a.DilationH, a.DilationW},
			Group: a.Group, Outputs: a.OutputCount, ReLU: a.ReLU, ReLU6: a.ReLU6}
	case *graph.PoolAttrs:
		v = jsonPoolAttrs{Type: a.Type.String(), Kernel: []int{a.KernelH, a.KernelW},
			Stride: []int{a.StrideH, a.StrideW}, Pad: []int{a.PadH, a.PadW}, Global: a.Global}
	case *graph.BatchNormAttrs:
		v = map[string]any{"eps": a.Eps}
	case *graph.ScaleAttrs:
		v = nil
	case *graph.EltwiseAttrs:
		v = map[string]any{"type": a.Type.String()}
	case *graph.ConcatAttrs:
		v = map[string]any{"axis": a.Axis}
	case *graph.InnerProductAttrs:
		v = map[string]any{"outputs": a.OutputCount, "relu": a.ReLU}
	case *graph.SoftmaxAttrs:
		v = map[string]any{"axis": a.Axis}
	case *graph.FlattenAttrs:
		v = map[string]any{"axis": a.Axis}
	case *graph.ReshapeAttrs:
		v = map[string]any{"shape": a.Shape}
	case *graph.DropoutAttrs:
		v = nil
	case *graph.PaddingAttrs:
		v = map[string]any{"Top": a.Top, "Bottom": a.Bottom, "Left": a.Left, "Right": a.Right}
	case *graph.LayerNormAttrs:
		v = map[string]any{"eps": a.Eps}
	case *graph.MatMulAttrs:
		if a.Residual != graph.NoResidual {
			return nil, fmt.Errorf("converter: MatMul %q with a fused residual has no model-file form", n.Name)
		}
		v = map[string]any{"heads": a.Heads, "transpose_b": a.TransposeB, "scale": a.Scale}
	case *graph.TransposeAttrs:
		v = map[string]any{"perm": a.Perm}
	case nil:
		return nil, nil
	default:
		return nil, fmt.Errorf("converter: cannot export attrs %T", n.Attrs)
	}
	if v == nil {
		return nil, nil
	}
	return json.Marshal(v)
}
