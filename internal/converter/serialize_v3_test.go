package converter

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/models"
	"mnn/internal/optimizer"
	"mnn/internal/session"
	"mnn/internal/tensor"
)

// tinyTransformerGraph builds a minimal graph exercising every v3 op
// (LayerNorm, GELU, MatMul in all three forms, Transpose) without the full
// built-in's weight volume.
func tinyTransformerGraph() *graph.Graph {
	g := graph.New("tiny-tf")
	const b, l, d, h = 1, 4, 8, 2
	g.AddNode(&graph.Node{Name: "x", Op: graph.OpInput, Outputs: []string{"x"},
		Attrs: &graph.InputAttrs{Shape: []int{b, l, d}}})

	gamma := tensor.New(d)
	beta := tensor.New(d)
	for i := 0; i < d; i++ {
		gamma.Data()[i] = 1
	}
	g.AddWeight("ln_g", gamma)
	g.AddWeight("ln_b", beta)
	g.AddNode(&graph.Node{Name: "ln", Op: graph.OpLayerNorm, Inputs: []string{"x"},
		Outputs: []string{"ln"}, WeightNames: []string{"ln_g", "ln_b"},
		Attrs: &graph.LayerNormAttrs{Eps: 1e-5}})

	w := tensor.New(d, d)
	tensor.FillRandom(w, 11, 0.3)
	g.AddWeight("w_q", w)
	g.AddNode(&graph.Node{Name: "q", Op: graph.OpMatMul, Inputs: []string{"ln"},
		Outputs: []string{"q"}, WeightNames: []string{"w_q"}, Attrs: &graph.MatMulAttrs{}})

	g.AddNode(&graph.Node{Name: "qk", Op: graph.OpMatMul, Inputs: []string{"q", "ln"},
		Outputs: []string{"qk"}, Attrs: &graph.MatMulAttrs{Heads: h, TransposeB: true, Scale: 0.5}})
	g.AddNode(&graph.Node{Name: "att", Op: graph.OpSoftmax, Inputs: []string{"qk"},
		Outputs: []string{"att"}, Attrs: &graph.SoftmaxAttrs{Axis: -1}})
	g.AddNode(&graph.Node{Name: "av", Op: graph.OpMatMul, Inputs: []string{"att", "ln"},
		Outputs: []string{"av"}, Attrs: &graph.MatMulAttrs{Heads: h}})
	g.AddNode(&graph.Node{Name: "gelu", Op: graph.OpGELU, Inputs: []string{"av"},
		Outputs: []string{"gelu"}})
	g.AddNode(&graph.Node{Name: "tp", Op: graph.OpTranspose, Inputs: []string{"gelu"},
		Outputs: []string{"tp"}, Attrs: &graph.TransposeAttrs{Perm: []int{0, 2, 1}}})

	g.InputNames = []string{"x"}
	g.OutputNames = []string{"tp"}
	return g
}

// TestV3RoundTripTransformer: the transformer op family survives the binary
// format bit-exactly, checked by reference inference on both graphs.
func TestV3RoundTripTransformer(t *testing.T) {
	for _, build := range []func() *graph.Graph{
		tinyTransformerGraph,
		func() *graph.Graph { g, _ := models.ByName("transformer"); return g },
	} {
		g := build()
		var buf bytes.Buffer
		if err := Save(g, &buf); err != nil {
			t.Fatal(err)
		}
		g2, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		inShape := g.Node(g.InputNames[0]).Attrs.(*graph.InputAttrs).Shape
		in := tensor.New(inShape...)
		tensor.FillRandom(in, 5, 1)
		feeds := map[string]*tensor.Tensor{g.InputNames[0]: in}
		out1, err := session.RunReference(g, feeds)
		if err != nil {
			t.Fatal(err)
		}
		out2, err := session.RunReference(g2, feeds)
		if err != nil {
			t.Fatal(err)
		}
		name := g.OutputNames[0]
		if d := tensor.MaxAbsDiff(out1[name], out2[name]); d != 0 {
			t.Fatalf("%s: round trip changed inference by %g", g.Name, d)
		}
	}
}

// TestV3AttrsRoundTripExactly pins every new attr field through the codec.
func TestV3AttrsRoundTripExactly(t *testing.T) {
	g := tinyTransformerGraph()
	var buf bytes.Buffer
	if err := Save(g, &buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if a := g2.Node("ln").Attrs.(*graph.LayerNormAttrs); a.Eps != 1e-5 {
		t.Errorf("LayerNorm eps = %v", a.Eps)
	}
	if a := g2.Node("qk").Attrs.(*graph.MatMulAttrs); a.Heads != 2 || !a.TransposeB || a.Scale != 0.5 {
		t.Errorf("QK attrs = %+v", a)
	}
	if a := g2.Node("av").Attrs.(*graph.MatMulAttrs); a.Heads != 2 || a.TransposeB || a.Scale != 0 {
		t.Errorf("AV attrs = %+v", a)
	}
	if a := g2.Node("q").Attrs.(*graph.MatMulAttrs); a.Heads != 0 || a.TransposeB {
		t.Errorf("weight-form attrs = %+v", a)
	}
	if a := g2.Node("tp").Attrs.(*graph.TransposeAttrs); len(a.Perm) != 3 || a.Perm[1] != 2 {
		t.Errorf("Transpose perm = %v", a.Perm)
	}
	if g2.Node("gelu").Attrs != nil {
		t.Errorf("GELU attrs = %+v, want nil", g2.Node("gelu").Attrs)
	}
}

// TestFutureVersionTypedError simulates an older reader meeting a
// newer-format file (the v2-only-reader-meets-v3-file scenario): the version
// gate must fire with the typed sentinel before any attr parsing happens.
func TestFutureVersionTypedError(t *testing.T) {
	g := tinyTransformerGraph()
	var buf bytes.Buffer
	if err := Save(g, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The version field is the second u32.
	binary.LittleEndian.PutUint32(data[4:8], Version+1)
	_, err := Load(bytes.NewReader(data))
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("Load(v%d file) = %v, want ErrUnsupportedVersion", Version+1, err)
	}
	// Version 0 is equally out of range.
	binary.LittleEndian.PutUint32(data[4:8], 0)
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("Load(v0 file) = %v, want ErrUnsupportedVersion", err)
	}
}

// TestV3JSONFrontendRoundTrip: the JSON dialect carries the transformer ops.
func TestV3JSONFrontendRoundTrip(t *testing.T) {
	g := tinyTransformerGraph()
	var buf bytes.Buffer
	if err := ExportJSON(g, &buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 4, 8)
	tensor.FillRandom(in, 8, 1)
	out1, err := session.RunReference(g, map[string]*tensor.Tensor{"x": in})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := session.RunReference(g2, map[string]*tensor.Tensor{"x": in})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(out1["tp"], out2["tp"]); d != 0 {
		t.Fatalf("JSON round trip changed inference by %g", d)
	}
}

// FuzzLoad fuzzes the binary loader with a v3 seed (satellite 6): whatever
// the input, Load must return a graph or an error — never panic — and any
// successfully loaded graph must survive a second Save/Load round trip.
func FuzzLoad(f *testing.F) {
	var seed bytes.Buffer
	if err := Save(tinyTransformerGraph(), &seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	// A truncated prefix and raw garbage exercise the error paths.
	f.Add(seed.Bytes()[:len(seed.Bytes())/3])
	f.Add([]byte("MNNGnot really"))
	// Tensors across chunk boundaries, a zero-element and an int8 one, and
	// those cut or patched inside the tensor decode.
	valid, bad := corruptModels(f)
	f.Add(valid)
	for _, c := range bad {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Save(g, &buf); err != nil {
			t.Fatalf("Save(Load(fuzz)) failed: %v", err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("Load(Save(Load(fuzz))) failed: %v", err)
		}
	})
}

// TestSaveRefusesAttention: a session's fused Attention node has no
// model-file form; Save and ExportJSON refuse a graph that holds one.
func TestSaveRefusesAttention(t *testing.T) {
	g := models.Transformer()
	shapes, err := graph.InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := optimizer.FuseAttention(g, shapes, func(*graph.Node) bool { return true }); n == 0 {
		t.Fatal("nothing fused")
	}
	var buf bytes.Buffer
	if err := Save(g, &buf); err == nil {
		t.Fatal("Save wrote an Attention node")
	}
	if err := ExportJSON(g, &buf); err == nil {
		t.Fatal("ExportJSON wrote an Attention node")
	}
}

// TestSaveRefusesResidual: a weight MatMul that stores a fused residual add
// has no model-file form; Save and ExportJSON refuse a graph that holds one.
func TestSaveRefusesResidual(t *testing.T) {
	g := models.Transformer()
	shapes, err := graph.InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := optimizer.FuseResidual(g, shapes, func(*graph.Node) bool { return true }); n == 0 {
		t.Fatal("nothing fused")
	}
	var buf bytes.Buffer
	if err := Save(g, &buf); err == nil {
		t.Fatal("Save wrote a MatMul with a fused residual")
	}
	if err := ExportJSON(g, &buf); err == nil {
		t.Fatal("ExportJSON wrote a MatMul with a fused residual")
	}
}
