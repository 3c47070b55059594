package converter

import (
	"bytes"
	"maps"
	"runtime"
	"strings"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/models"
	"mnn/internal/quant"
	"mnn/internal/session"
	"mnn/internal/tensor"
)

// TestSaveLoadRoundTripAllNetworks saves every zoo network and loads it back
// twice — with the bulk decode and with the per-value decode it replaced,
// kept here as the oracle — and holds both to the saved weights bit for bit.
// Weights are compared by hash, so no two copies of vgg-16's 528 MiB are
// alive at once; -short keeps three networks of at most 16 MiB.
func TestSaveLoadRoundTripAllNetworks(t *testing.T) {
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name != "mobilenet-v1" && name != "squeezenet-v1.1" && name != "transformer" {
				t.Skip("all zoo networks (vgg-16's weights are 528 MiB) only without -short")
			}
			g, err := models.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Save(g, &buf); err != nil {
				t.Fatal(err)
			}
			want, nodes, graphName := weightHashes(g), g.Nodes, g.Name
			runtime.GC() // g is dead: only its hashes, nodes and name are kept
			for _, dec := range []struct {
				name string
				f32s func(*reader, []float32)
			}{{"bulk", (*reader).f32s}, {"per-value", f32sPerValue}} {
				g2, err := load(bytes.NewReader(buf.Bytes()), dec.f32s)
				if err != nil {
					t.Fatalf("%s: %v", dec.name, err)
				}
				if g2.Name != graphName {
					t.Fatalf("%s: graph name %q, want %q", dec.name, g2.Name, graphName)
				}
				if len(g2.Nodes) != len(nodes) {
					t.Fatalf("%s: %d nodes, want %d", dec.name, len(g2.Nodes), len(nodes))
				}
				for i, n := range nodes {
					if n2 := g2.Nodes[i]; n.Name != n2.Name || n.Op != n2.Op {
						t.Fatalf("%s: node %d is %s/%v, want %s/%v", dec.name, i, n2.Name, n2.Op, n.Name, n.Op)
					}
				}
				if got := weightHashes(g2); !maps.Equal(got, want) {
					t.Fatalf("%s: weights differ from the saved ones", dec.name)
				}
				runtime.GC()
			}
		})
	}
}

func TestRoundTripPreservesInference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs inference on round-tripped networks (~15s)")
	}
	g := models.SqueezeNetV11()
	var buf bytes.Buffer
	if err := Save(g, &buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 3, 224, 224)
	tensor.FillRandom(in, 99, 1)
	out1, err := session.RunReference(g, map[string]*tensor.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := session.RunReference(g2, map[string]*tensor.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(out1["prob"], out2["prob"]); d != 0 {
		t.Fatalf("round trip changed inference by %g", d)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected EOF error")
	}
	// Truncated valid prefix.
	g := models.SqueezeNetV11()
	var buf bytes.Buffer
	if err := Save(g, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestQuantizedModelRoundTrip(t *testing.T) {
	g := models.SqueezeNetV11()
	count, saved := quant.QuantizeWeights(g)
	if count == 0 || saved <= 0 {
		t.Fatalf("quantization did nothing: %d, %d", count, saved)
	}
	var buf bytes.Buffer
	if err := Save(g, &buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Quantized weights must survive bit-exactly (int8 + scale).
	for name, w := range g.Weights {
		if w.DType() != tensor.Int8 {
			continue
		}
		w2 := g2.Weights[name]
		if w2.DType() != tensor.Int8 || w2.Quant.Scale != w.Quant.Scale {
			t.Fatalf("weight %q: dtype/scale mismatch", name)
		}
		for i := range w.Int8Data() {
			if w.Int8Data()[i] != w2.Int8Data()[i] {
				t.Fatalf("weight %q: int8 data mismatch", name)
			}
		}
	}
	// Size: quantized file should be much smaller than float.
	var fbuf bytes.Buffer
	if err := Save(models.SqueezeNetV11(), &fbuf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= fbuf.Len()*2/3 {
		t.Errorf("quantized size %d not < 2/3 of float size %d", buf.Len(), fbuf.Len())
	}
}

// TestActScalesRoundTrip: calibrated activation scales (format v2) must
// survive serialization exactly, and a scale-free graph must round-trip to a
// nil table.
func TestActScalesRoundTrip(t *testing.T) {
	g := models.SqueezeNetV11()
	g.ActScales = map[string]float32{"conv1": 0.125, "pool10": 3.5e-3, "prob": 1}
	var buf bytes.Buffer
	if err := Save(g, &buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.ActScales) != len(g.ActScales) {
		t.Fatalf("got %d scales, want %d", len(g2.ActScales), len(g.ActScales))
	}
	for name, v := range g.ActScales {
		if g2.ActScales[name] != v {
			t.Fatalf("scale %q: got %v want %v", name, g2.ActScales[name], v)
		}
	}

	plain := models.SqueezeNetV11()
	buf.Reset()
	if err := Save(plain, &buf); err != nil {
		t.Fatal(err)
	}
	p2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p2.ActScales != nil {
		t.Fatalf("uncalibrated graph round-tripped %d scales", len(p2.ActScales))
	}
}

const tinyJSON = `{
  "name": "tiny",
  "inputs": ["data"],
  "outputs": ["prob"],
  "nodes": [
    {"name": "data", "op": "Input", "attrs": {"shape": [1, 3, 8, 8]}},
    {"name": "conv1", "op": "Conv2D", "inputs": ["data"],
     "weights": ["w1", "b1"],
     "attrs": {"kernel": [3], "stride": [1], "pad": [1], "outputs": 4, "relu": true}},
    {"name": "pool1", "op": "Pool", "inputs": ["conv1"],
     "attrs": {"type": "avg", "global": true}},
    {"name": "flat", "op": "Flatten", "inputs": ["pool1"], "attrs": {"axis": 1}},
    {"name": "prob", "op": "Softmax", "inputs": ["flat"], "attrs": {"axis": 1}}
  ],
  "weights": [
    {"name": "w1", "shape": [4, 3, 3, 3], "init": "random", "seed": 3, "scale": 0.2},
    {"name": "b1", "shape": [4], "init": "zeros"}
  ]
}`

func TestParseJSONFrontend(t *testing.T) {
	g, err := ParseJSON(strings.NewReader(tinyJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 5 {
		t.Fatalf("nodes: %d", len(g.Nodes))
	}
	conv := g.Node("conv1")
	a := conv.Attrs.(*graph.Conv2DAttrs)
	if a.KernelH != 3 || a.KernelW != 3 || !a.ReLU || a.OutputCount != 4 {
		t.Fatalf("conv attrs: %+v", a)
	}
	// Must run end to end.
	in := tensor.New(1, 3, 8, 8)
	tensor.FillRandom(in, 4, 1)
	outs, err := session.RunReference(g, map[string]*tensor.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range outs["prob"].Data() {
		sum += float64(v)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("softmax sum %v", sum)
	}
}

func TestParseJSONErrors(t *testing.T) {
	cases := []string{
		`{`, // malformed
		`{"name":"x","nodes":[{"name":"n","op":"Bogus"}]}`,                       // unknown op
		`{"name":"x","nodes":[{"name":"n","op":"Conv2D","inputs":["missing"]}]}`, // missing attrs
		`{"name":"x","weights":[{"name":"w","shape":[2],"data":[1,2,3]}]}`,       // bad length
		`{"name":"x","weights":[{"name":"w","shape":[2],"init":"gaussian"}]}`,    // bad init
		`{"name":"x","unknown_field":1}`,                                         // strict fields
	}
	for i, c := range cases {
		if _, err := ParseJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestExportImportJSON(t *testing.T) {
	g, err := ParseJSON(strings.NewReader(tinyJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ExportJSON(g, &buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 3, 8, 8)
	tensor.FillRandom(in, 5, 1)
	out1, _ := session.RunReference(g, map[string]*tensor.Tensor{"data": in})
	out2, _ := session.RunReference(g2, map[string]*tensor.Tensor{"data": in})
	if d := tensor.MaxAbsDiff(out1["prob"], out2["prob"]); d != 0 {
		t.Fatalf("JSON round trip changed inference by %g", d)
	}
}

func TestLoadSurvivesCorruption(t *testing.T) {
	// Flipping bytes anywhere in a valid model must produce an error or a
	// (possibly different) valid graph — never a panic or a hang.
	g, err := ParseJSON(strings.NewReader(tinyJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(g, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r := tensor.NewRNG(77)
	for trial := 0; trial < 200; trial++ {
		corrupted := append([]byte(nil), data...)
		for flips := 0; flips <= trial%3; flips++ {
			pos := r.Intn(len(corrupted))
			corrupted[pos] ^= byte(1 << r.Intn(8))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d: Load panicked: %v", trial, p)
				}
			}()
			_, _ = Load(bytes.NewReader(corrupted))
		}()
	}
}

func TestLoadTruncationSweep(t *testing.T) {
	g, err := ParseJSON(strings.NewReader(tinyJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(g, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut += 97 {
		if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes loaded successfully", cut)
		}
	}
}
