package graph

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"mnn/internal/tensor"
)

// tinyConvGraph builds input(1,3,8,8) -> conv3x3s1 oc=4 -> relu -> pool2x2s2.
func tinyConvGraph(t *testing.T) *Graph {
	t.Helper()
	g := New("tiny")
	g.InputNames = []string{"data"}
	g.OutputNames = []string{"pool1"}
	g.AddNode(&Node{Name: "data", Op: OpInput, Outputs: []string{"data"},
		Attrs: &InputAttrs{Shape: []int{1, 3, 8, 8}}})
	g.AddWeight("conv1_w", tensor.New(4, 3, 3, 3))
	g.AddWeight("conv1_b", tensor.New(4))
	g.AddNode(&Node{Name: "conv1", Op: OpConv2D, Inputs: []string{"data"}, Outputs: []string{"conv1"},
		WeightNames: []string{"conv1_w", "conv1_b"},
		Attrs: &Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
			DilationH: 1, DilationW: 1, PadH: 1, PadW: 1, Group: 1, OutputCount: 4}})
	g.AddNode(&Node{Name: "relu1", Op: OpReLU, Inputs: []string{"conv1"}, Outputs: []string{"relu1"}})
	g.AddNode(&Node{Name: "pool1", Op: OpPool, Inputs: []string{"relu1"}, Outputs: []string{"pool1"},
		Attrs: &PoolAttrs{Type: MaxPool, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}})
	return g
}

func TestValidateOK(t *testing.T) {
	if err := tinyConvGraph(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsMissingWeight(t *testing.T) {
	g := tinyConvGraph(t)
	g.Node("conv1").WeightNames = append(g.Node("conv1").WeightNames, "ghost")
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("expected missing-weight error, got %v", err)
	}
}

func TestValidateDetectsUseBeforeDef(t *testing.T) {
	g := tinyConvGraph(t)
	// Swap conv and relu so relu consumes conv1 before it exists.
	g.Nodes[1], g.Nodes[2] = g.Nodes[2], g.Nodes[1]
	if err := g.Validate(); err == nil {
		t.Fatal("expected use-before-def error")
	}
}

func TestValidateDetectsDuplicateNames(t *testing.T) {
	g := tinyConvGraph(t)
	g.AddNode(&Node{Name: "relu1", Op: OpReLU, Inputs: []string{"pool1"}, Outputs: []string{"x"}})
	if err := g.Validate(); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestValidateDetectsWrongAttrs(t *testing.T) {
	g := tinyConvGraph(t)
	g.Node("conv1").Attrs = &PoolAttrs{}
	if err := g.Validate(); err == nil {
		t.Fatal("expected attr-type error")
	}
}

func TestValidateDetectsMissingOutput(t *testing.T) {
	g := tinyConvGraph(t)
	g.OutputNames = []string{"nope"}
	if err := g.Validate(); err == nil {
		t.Fatal("expected missing-output error")
	}
}

func TestTopoSortRecoversOrder(t *testing.T) {
	g := tinyConvGraph(t)
	// Scramble: reverse the node list.
	for i, j := 0, len(g.Nodes)-1; i < j; i, j = i+1, j-1 {
		g.Nodes[i], g.Nodes[j] = g.Nodes[j], g.Nodes[i]
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n.Name] = i
	}
	if !(pos["data"] < pos["conv1"] && pos["conv1"] < pos["relu1"] && pos["relu1"] < pos["pool1"]) {
		t.Fatalf("bad topo order: %v", pos)
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := New("cyclic")
	g.AddNode(&Node{Name: "a", Op: OpReLU, Inputs: []string{"bOut"}, Outputs: []string{"aOut"}})
	g.AddNode(&Node{Name: "b", Op: OpReLU, Inputs: []string{"aOut"}, Outputs: []string{"bOut"}})
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestInferShapes(t *testing.T) {
	g := tinyConvGraph(t)
	shapes, err := InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int{
		"data":  {1, 3, 8, 8},
		"conv1": {1, 4, 8, 8},
		"relu1": {1, 4, 8, 8},
		"pool1": {1, 4, 4, 4},
	}
	for name, w := range want {
		if !tensor.EqualShape(shapes[name], w) {
			t.Errorf("%s: got %v, want %v", name, shapes[name], w)
		}
	}
}

func TestInferShapesWithOverride(t *testing.T) {
	g := tinyConvGraph(t)
	shapes, err := InferShapes(g, map[string][]int{"data": {1, 3, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.EqualShape(shapes["pool1"], []int{1, 4, 8, 8}) {
		t.Fatalf("override not applied: %v", shapes["pool1"])
	}
}

func TestConvOutputSizeCases(t *testing.T) {
	cases := []struct {
		ih, iw       int
		a            Conv2DAttrs
		wantH, wantW int
	}{
		// 3x3 s1 p1 keeps size.
		{224, 224, Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 224, 224},
		// 3x3 s2 p1 halves (ceil).
		{224, 224, Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 112, 112},
		// 7x7 s2 p3 (ResNet stem).
		{224, 224, Conv2DAttrs{KernelH: 7, KernelW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, 112, 112},
		// 1x1 s1.
		{56, 56, Conv2DAttrs{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}, 56, 56},
		// Dilated 3x3 d2 p2 keeps size.
		{32, 32, Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, DilationH: 2, DilationW: 2, PadH: 2, PadW: 2}, 32, 32},
		// Asymmetric 1x7 (Inception-v3), explicit pad 0x3.
		{17, 17, Conv2DAttrs{KernelH: 1, KernelW: 7, StrideH: 1, StrideW: 1, PadH: 0, PadW: 3}, 17, 17},
		// SAME padding.
		{15, 15, Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadMode: PadSame}, 8, 8},
		// VALID padding.
		{15, 15, Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadMode: PadValid}, 13, 13},
	}
	for i, c := range cases {
		oh, ow, err := ConvOutputSize(c.ih, c.iw, &c.a)
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if oh != c.wantH || ow != c.wantW {
			t.Errorf("case %d: got %dx%d, want %dx%d", i, oh, ow, c.wantH, c.wantW)
		}
	}
}

func TestConvOutputSizeError(t *testing.T) {
	a := Conv2DAttrs{KernelH: 9, KernelW: 9, StrideH: 1, StrideW: 1}
	if _, _, err := ConvOutputSize(4, 4, &a); err == nil {
		t.Fatal("expected error for kernel larger than input")
	}
}

func TestConcatShape(t *testing.T) {
	g := New("cat")
	g.InputNames = []string{"a", "b"}
	g.AddNode(&Node{Name: "a", Op: OpInput, Outputs: []string{"a"}, Attrs: &InputAttrs{Shape: []int{1, 16, 8, 8}}})
	g.AddNode(&Node{Name: "b", Op: OpInput, Outputs: []string{"b"}, Attrs: &InputAttrs{Shape: []int{1, 24, 8, 8}}})
	g.AddNode(&Node{Name: "cat", Op: OpConcat, Inputs: []string{"a", "b"}, Outputs: []string{"cat"},
		Attrs: &ConcatAttrs{Axis: 1}})
	shapes, err := InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.EqualShape(shapes["cat"], []int{1, 40, 8, 8}) {
		t.Fatalf("concat shape %v", shapes["cat"])
	}
}

func TestConcatMismatchError(t *testing.T) {
	g := New("cat")
	g.InputNames = []string{"a", "b"}
	g.AddNode(&Node{Name: "a", Op: OpInput, Outputs: []string{"a"}, Attrs: &InputAttrs{Shape: []int{1, 16, 8, 8}}})
	g.AddNode(&Node{Name: "b", Op: OpInput, Outputs: []string{"b"}, Attrs: &InputAttrs{Shape: []int{1, 24, 9, 8}}})
	g.AddNode(&Node{Name: "cat", Op: OpConcat, Inputs: []string{"a", "b"}, Outputs: []string{"cat"},
		Attrs: &ConcatAttrs{Axis: 1}})
	if _, err := InferShapes(g, nil); err == nil {
		t.Fatal("expected concat mismatch error")
	}
}

func TestReshapeInference(t *testing.T) {
	g := New("rs")
	g.InputNames = []string{"x"}
	g.AddNode(&Node{Name: "x", Op: OpInput, Outputs: []string{"x"}, Attrs: &InputAttrs{Shape: []int{2, 3, 4, 5}}})
	g.AddNode(&Node{Name: "r", Op: OpReshape, Inputs: []string{"x"}, Outputs: []string{"r"},
		Attrs: &ReshapeAttrs{Shape: []int{2, -1}}})
	shapes, err := InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.EqualShape(shapes["r"], []int{2, 60}) {
		t.Fatalf("reshape -1 inference: %v", shapes["r"])
	}
}

func TestFlattenInference(t *testing.T) {
	g := New("fl")
	g.InputNames = []string{"x"}
	g.AddNode(&Node{Name: "x", Op: OpInput, Outputs: []string{"x"}, Attrs: &InputAttrs{Shape: []int{2, 3, 4, 5}}})
	g.AddNode(&Node{Name: "f", Op: OpFlatten, Inputs: []string{"x"}, Outputs: []string{"f"},
		Attrs: &FlattenAttrs{Axis: 1}})
	shapes, err := InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.EqualShape(shapes["f"], []int{2, 60}) {
		t.Fatalf("flatten: %v", shapes["f"])
	}
}

func TestDeconvShape(t *testing.T) {
	g := New("dc")
	g.InputNames = []string{"x"}
	g.AddNode(&Node{Name: "x", Op: OpInput, Outputs: []string{"x"}, Attrs: &InputAttrs{Shape: []int{1, 8, 16, 16}}})
	g.AddWeight("w", tensor.New(8, 4, 3, 3))
	g.AddNode(&Node{Name: "d", Op: OpDeconv2D, Inputs: []string{"x"}, Outputs: []string{"d"},
		WeightNames: []string{"w"},
		Attrs: &Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1,
			Group: 1, OutputCount: 4}})
	shapes, err := InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// (16-1)*2 + 3 - 2*1 = 31
	if !tensor.EqualShape(shapes["d"], []int{1, 4, 31, 31}) {
		t.Fatalf("deconv shape: %v", shapes["d"])
	}
}

func TestMULCountConv(t *testing.T) {
	g := tinyConvGraph(t)
	shapes, err := InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	conv := g.Node("conv1")
	got := MULCount(conv, shapes)
	// out elems = 1*4*8*8 = 256; per-out muls = 3*3*3 = 27.
	if want := int64(256 * 27); got != want {
		t.Fatalf("conv MULs = %d, want %d", got, want)
	}
}

func TestMULCountDepthwise(t *testing.T) {
	g := New("dw")
	g.InputNames = []string{"x"}
	g.AddNode(&Node{Name: "x", Op: OpInput, Outputs: []string{"x"}, Attrs: &InputAttrs{Shape: []int{1, 32, 10, 10}}})
	g.AddWeight("w", tensor.New(32, 1, 3, 3))
	g.AddNode(&Node{Name: "dw", Op: OpConv2D, Inputs: []string{"x"}, Outputs: []string{"dw"},
		WeightNames: []string{"w"},
		Attrs: &Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
			Group: 32, OutputCount: 32}})
	shapes, err := InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := MULCount(g.Node("dw"), shapes)
	// depthwise: 1*32*10*10 outputs * 1 channel * 9 = 28800.
	if want := int64(32 * 100 * 9); got != want {
		t.Fatalf("depthwise MULs = %d, want %d", got, want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := tinyConvGraph(t)
	c := g.Clone()
	c.Node("conv1").Attrs.(*Conv2DAttrs).KernelH = 99
	if g.Node("conv1").Attrs.(*Conv2DAttrs).KernelH == 99 {
		t.Fatal("Clone must copy attrs")
	}
	c.Nodes[0].Inputs = append(c.Nodes[0].Inputs, "zzz")
	if len(g.Nodes[0].Inputs) != 0 {
		t.Fatal("Clone must copy input slices")
	}
}

func TestOpCensus(t *testing.T) {
	g := tinyConvGraph(t)
	census := g.OpCensus()
	m := map[OpType]int{}
	for _, c := range census {
		m[c.Op] = c.Count
	}
	if m[OpConv2D] != 1 || m[OpReLU] != 1 || m[OpPool] != 1 || m[OpInput] != 1 {
		t.Fatalf("census: %v", m)
	}
}

func TestParseOpType(t *testing.T) {
	for _, op := range AllOpTypes() {
		got, err := ParseOpType(op.String())
		if err != nil || got != op {
			t.Fatalf("round trip %v failed: %v %v", op, got, err)
		}
	}
	if _, err := ParseOpType("Bogus"); err == nil {
		t.Fatal("expected error for unknown op")
	}
}

func TestConsumersProducer(t *testing.T) {
	g := tinyConvGraph(t)
	if p := g.Producer("conv1"); p == nil || p.Name != "conv1" {
		t.Fatal("Producer lookup failed")
	}
	cs := g.Consumers("conv1")
	if len(cs) != 1 || cs[0].Name != "relu1" {
		t.Fatal("Consumers lookup failed")
	}
}

func TestPoolGlobalShape(t *testing.T) {
	g := New("gp")
	g.InputNames = []string{"x"}
	g.AddNode(&Node{Name: "x", Op: OpInput, Outputs: []string{"x"}, Attrs: &InputAttrs{Shape: []int{1, 128, 7, 7}}})
	g.AddNode(&Node{Name: "gp", Op: OpPool, Inputs: []string{"x"}, Outputs: []string{"gp"},
		Attrs: &PoolAttrs{Type: AvgPool, Global: true}})
	shapes, err := InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.EqualShape(shapes["gp"], []int{1, 128, 1, 1}) {
		t.Fatalf("global pool: %v", shapes["gp"])
	}
}

// WriteDOT renders the graph in Graphviz DOT format, one box per operator
// colored by kind, with tensor shapes on the edges when a ShapeMap is
// provided (pass nil to omit). A visualization tool in the spirit of the
// paper's "more tools for user convenience".
func WriteDOT(g *Graph, shapes ShapeMap, w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Name)
	b.WriteString("  rankdir=TB;\n  node [shape=box, style=filled, fontname=\"monospace\"];\n")
	for _, n := range g.Nodes {
		label := fmt.Sprintf("%s\\n%s", n.Name, n.Op)
		if a, ok := n.Attrs.(*Conv2DAttrs); ok {
			label = fmt.Sprintf("%s\\n%v %dx%d s%d", n.Name, n.Op, a.KernelH, a.KernelW, a.StrideH)
			if a.Group > 1 {
				label += fmt.Sprintf(" g%d", a.Group)
			}
		}
		fmt.Fprintf(&b, "  %q [label=%q, fillcolor=%q];\n", n.Name, label, dotColor(n.Op))
	}
	producer := map[string]string{}
	for _, n := range g.Nodes {
		for _, o := range n.Outputs {
			producer[o] = n.Name
		}
	}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			p, ok := producer[in]
			if !ok {
				continue
			}
			if shapes != nil {
				if s, ok := shapes[in]; ok {
					fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", p, n.Name, fmt.Sprint(s))
					continue
				}
			}
			fmt.Fprintf(&b, "  %q -> %q;\n", p, n.Name)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func dotColor(op OpType) string {
	switch op {
	case OpConv2D, OpDeconv2D:
		return "lightblue"
	case OpInnerProduct:
		return "lightsalmon"
	case OpPool:
		return "palegreen"
	case OpEltwise, OpConcat:
		return "khaki"
	case OpInput:
		return "white"
	case OpSoftmax:
		return "plum"
	default:
		return "lightgrey"
	}
}

func TestWriteDOT(t *testing.T) {
	g := tinyConvGraph(t)
	shapes, err := InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteDOT(g, shapes, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", `"conv1"`, `"relu1"`, "->", "lightblue", "[1 4 8 8]"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Without shapes, edges carry no labels but the structure remains.
	var plain strings.Builder
	if err := WriteDOT(g, nil, &plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "[1 4 8 8]") {
		t.Error("nil shapes must omit edge labels")
	}
}

// TestAttentionIsSessionOnly: the fused attention kind prints as
// "Attention" but is no model-file kind — AllOpTypes leaves it out and
// ParseOpType does not know it.
func TestAttentionIsSessionOnly(t *testing.T) {
	if OpAttention.String() != "Attention" {
		t.Fatalf("OpAttention prints %q", OpAttention.String())
	}
	for _, op := range AllOpTypes() {
		if op == OpAttention {
			t.Fatal("AllOpTypes lists OpAttention")
		}
	}
	if _, err := ParseOpType("Attention"); err == nil {
		t.Fatal("ParseOpType accepts Attention")
	}
}
