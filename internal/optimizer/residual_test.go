package optimizer_test

import (
	"context"
	"testing"

	"mnn/internal/backend"
	"mnn/internal/cpu"
	"mnn/internal/graph"
	"mnn/internal/models"
	"mnn/internal/optimizer"
	"mnn/internal/session"
)

// fuseResiduals builds the transformer, lets edit change it and editShapes
// change its inferred shapes, and fuses its residual adds whose nodes keep
// accepts; it returns the graph and the count.
func fuseResiduals(t *testing.T, edit func(g *graph.Graph), editShapes func(graph.ShapeMap), keep func(*graph.Node) bool) (*graph.Graph, int) {
	t.Helper()
	g := models.Transformer()
	if edit != nil {
		edit(g)
	}
	shapes, err := graph.InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if editShapes != nil {
		editShapes(shapes)
	}
	if keep == nil {
		keep = func(*graph.Node) bool { return true }
	}
	n := optimizer.FuseResidual(g, shapes, keep)
	if err := g.Validate(); err != nil {
		t.Fatalf("fused graph: %v", err)
	}
	if _, err := graph.InferShapes(g, nil); err != nil {
		t.Fatalf("fused graph: %v", err)
	}
	return g, n
}

// TestFuseResidualTransformer: each block's two residual adds go into the
// MatMul they read — the projection and the second feed-forward GEMM, each
// the add's second operand — which keeps its name, reads its activation and
// the add's first operand and writes the add's output in its place; a second
// pass finds nothing.
func TestFuseResidualTransformer(t *testing.T) {
	before := len(models.Transformer().Nodes)
	g, n := fuseResiduals(t, nil, nil, nil)
	if n != 4 || len(g.Nodes) != before-4 {
		t.Fatalf("fused %d adds, %d nodes of %d left; want 4 and %d", n, len(g.Nodes), before, before-4)
	}
	for _, c := range []struct{ mm, in, res, out string }{
		{"enc0_proj", "enc0_av", "tokens", "enc0_res1"},
		{"enc0_ff2", "enc0_gelu", "enc0_res1", "enc0_res2"},
		{"enc1_proj", "enc1_av", "enc0_res2", "enc1_res1"},
		{"enc1_ff2", "enc1_gelu", "enc1_res1", "enc1_res2"},
	} {
		mm := nodeNamed(g, c.mm)
		if mm == nil || mm.Op != graph.OpMatMul || nodeNamed(g, c.out) != nil {
			t.Fatalf("%s: %+v, and the add %s still there: %v", c.mm, mm, c.out, nodeNamed(g, c.out) != nil)
		}
		if len(mm.Inputs) != 2 || mm.Inputs[0] != c.in || mm.Inputs[1] != c.res || len(mm.Outputs) != 1 || mm.Outputs[0] != c.out {
			t.Fatalf("%s reads %v and writes %v; want [%s %s] and [%s]", c.mm, mm.Inputs, mm.Outputs, c.in, c.res, c.out)
		}
		if a := mm.Attrs.(*graph.MatMulAttrs); a.Residual != graph.ResidualBefore || a.Heads != 0 {
			t.Fatalf("%s attrs %+v, want the residual before the product", c.mm, a)
		}
	}
	shapes, _ := graph.InferShapes(g, nil)
	if again := optimizer.FuseResidual(g, shapes, func(*graph.Node) bool { return true }); again != 0 {
		t.Fatalf("second pass fused %d", again)
	}
}

// TestFuseResidualDeclines: an add stays a step of its own when something
// else reads the MatMul's output, either output is a graph output, it is no
// plain two-input sum, its operands' shapes differ, either node is off the
// CPU, or the session is Unfused. Only enc0_res1 is broken; the other three
// adds still fuse.
func TestFuseResidualDeclines(t *testing.T) {
	add := func(g *graph.Graph) *graph.EltwiseAttrs { return g.Node("enc0_res1").Attrs.(*graph.EltwiseAttrs) }
	for _, c := range []struct {
		name       string
		edit       func(g *graph.Graph)
		editShapes func(graph.ShapeMap)
		keep       func(*graph.Node) bool
	}{
		{"MatMul output read twice", func(g *graph.Graph) {
			g.AddNode(&graph.Node{Name: "peek", Op: graph.OpGELU, Inputs: []string{"enc0_proj"}, Outputs: []string{"peek"}})
			g.OutputNames = append(g.OutputNames, "peek")
		}, nil, nil},
		{"MatMul output is a graph output", func(g *graph.Graph) { g.OutputNames = append(g.OutputNames, "enc0_proj") }, nil, nil},
		{"sum is a graph output", func(g *graph.Graph) { g.OutputNames = append(g.OutputNames, "enc0_res1") }, nil, nil},
		{"EltSub", func(g *graph.Graph) { add(g).Type = graph.EltSub }, nil, nil},
		{"EltProd", func(g *graph.Graph) { add(g).Type = graph.EltProd }, nil, nil},
		{"three inputs", func(g *graph.Graph) {
			n := g.Node("enc0_res1")
			n.Inputs = append(n.Inputs, "tokens")
		}, nil, nil},
		{"ReLU", func(g *graph.Graph) { add(g).ReLU = true }, nil, nil},
		{"broadcast shapes", nil, func(s graph.ShapeMap) { s["tokens"] = []int{1, 1, models.TransformerDim} }, nil},
		{"add off the CPU", nil, nil, func(n *graph.Node) bool { return n.Name != "enc0_res1" }},
		{"MatMul off the CPU", nil, nil, func(n *graph.Node) bool { return n.Name != "enc0_proj" }},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, n := fuseResiduals(t, c.edit, c.editShapes, c.keep)
			if res := nodeNamed(g, "enc0_res1"); n != 3 || res == nil || res.Op != graph.OpEltwise || len(nodeNamed(g, "enc0_proj").Inputs) != 1 {
				t.Fatalf("fused %d, enc0_res1 %+v; want 3 and the add left alone", n, res)
			}
		})
	}
	t.Run("Unfused", func(t *testing.T) {
		s, err := session.New(models.Transformer(), session.Config{Backends: []backend.Backend{cpu.New(cpu.Config{Threads: 1})}, Unfused: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		p, err := s.RunProfiled(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		adds := 0
		for _, e := range p.Entries {
			if e.Op == graph.OpEltwise {
				adds++
			}
		}
		if adds != 4 {
			t.Fatalf("an Unfused session ran %d Eltwise steps, want 4", adds)
		}
	})
}
