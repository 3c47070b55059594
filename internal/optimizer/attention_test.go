package optimizer_test

import (
	"testing"

	"mnn/internal/graph"
	"mnn/internal/models"
	"mnn/internal/optimizer"
)

// fuseTransformer builds the transformer, lets edit change it, and fuses
// it with the nodes keep accepts; it returns the graph and the count.
func fuseTransformer(t *testing.T, edit func(g *graph.Graph), keep func(*graph.Node) bool) (*graph.Graph, int) {
	t.Helper()
	g := models.Transformer()
	if edit != nil {
		edit(g)
	}
	shapes, err := graph.InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if keep == nil {
		keep = func(*graph.Node) bool { return true }
	}
	n := optimizer.FuseAttention(g, shapes, keep)
	if err := g.Validate(); err != nil {
		t.Fatalf("fused graph: %v", err)
	}
	if _, err := graph.InferShapes(g, nil); err != nil {
		t.Fatalf("fused graph: %v", err)
	}
	return g, n
}

func nodeNamed(g *graph.Graph, name string) *graph.Node {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// TestFuseAttentionTransformer: both blocks' triples become one node named
// after the QK node, reading q, k, v and writing the AV node's output in its
// place; a second pass finds nothing.
func TestFuseAttentionTransformer(t *testing.T) {
	before := len(models.Transformer().Nodes)
	g, n := fuseTransformer(t, nil, nil)
	if n != 2 || len(g.Nodes) != before-4 {
		t.Fatalf("fused %d triples, %d nodes of %d left; want 2 and %d", n, len(g.Nodes), before, before-4)
	}
	for _, b := range []string{"enc0", "enc1"} {
		at := nodeNamed(g, b+"_qk")
		if at == nil || at.Op != graph.OpAttention {
			t.Fatalf("%s_qk: %+v, want an Attention node", b, at)
		}
		want := []string{b + "_q", b + "_k", b + "_v"}
		for i, in := range at.Inputs {
			if in != want[i] {
				t.Fatalf("%s inputs %v, want %v", at.Name, at.Inputs, want)
			}
		}
		if len(at.Outputs) != 1 || at.Outputs[0] != b+"_av" {
			t.Fatalf("%s outputs %v, want [%s_av]", at.Name, at.Outputs, b)
		}
		a := at.Attrs.(*graph.AttentionAttrs)
		if a.Heads != models.TransformerHeads || a.QKScale == 0 || a.AVScale != 0 {
			t.Fatalf("%s attrs %+v", at.Name, a)
		}
		if nodeNamed(g, b+"_attn") != nil || nodeNamed(g, b+"_av") != nil {
			t.Fatalf("%s: softmax or AV node left behind", b)
		}
	}
	shapes, _ := graph.InferShapes(g, nil)
	if again := optimizer.FuseAttention(g, shapes, func(*graph.Node) bool { return true }); again != 0 {
		t.Fatalf("second pass fused %d", again)
	}
}

// TestFuseAttentionDeclines: a triple stays three nodes when something else
// reads an intermediate, the softmax is not over the last axis, the heads
// differ, the values are not as wide as the queries, or a node is not on
// the CPU. Only enc0's triple is broken; enc1's still fuses.
func TestFuseAttentionDeclines(t *testing.T) {
	extraReader := func(in string) func(g *graph.Graph) {
		return func(g *graph.Graph) {
			g.AddNode(&graph.Node{Name: "peek", Op: graph.OpGELU, Inputs: []string{in}, Outputs: []string{"peek"}})
			g.OutputNames = append(g.OutputNames, "peek")
		}
	}
	for _, c := range []struct {
		name string
		edit func(g *graph.Graph)
		keep func(*graph.Node) bool
	}{
		{"scores are an output", func(g *graph.Graph) { g.OutputNames = append(g.OutputNames, "enc0_qk") }, nil},
		{"probabilities are an output", func(g *graph.Graph) { g.OutputNames = append(g.OutputNames, "enc0_attn") }, nil},
		{"scores have a second reader", extraReader("enc0_qk"), nil},
		{"probabilities have a second reader", extraReader("enc0_attn"), nil},
		{"softmax over axis 1", func(g *graph.Graph) {
			nodeNamed(g, "enc0_attn").Attrs.(*graph.SoftmaxAttrs).Axis = 1
		}, nil},
		{"heads differ", func(g *graph.Graph) {
			// AV over 2 heads writes [B, 2·L, D]: make it a graph output
			// of its own and let the projection read the values instead.
			nodeNamed(g, "enc0_av").Attrs.(*graph.MatMulAttrs).Heads = 2
			nodeNamed(g, "enc0_proj").Inputs[0] = "enc0_v"
			g.OutputNames = append(g.OutputNames, "enc0_av")
		}, nil},
		{"softmax off the CPU", nil, func(n *graph.Node) bool { return n.Name != "enc0_attn" }},
		{"QK off the CPU", nil, func(n *graph.Node) bool { return n.Name != "enc0_qk" }},
		{"AV off the CPU", nil, func(n *graph.Node) bool { return n.Name != "enc0_av" }},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, n := fuseTransformer(t, c.edit, c.keep)
			if n != 1 || nodeNamed(g, "enc0_qk").Op != graph.OpMatMul || nodeNamed(g, "enc1_qk").Op != graph.OpAttention {
				t.Fatalf("fused %d; enc0_qk is %v, enc1_qk %v; want 1, MatMul, Attention", n,
					nodeNamed(g, "enc0_qk").Op, nodeNamed(g, "enc1_qk").Op)
			}
		})
	}
}
