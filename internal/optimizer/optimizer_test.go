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
	"mnn/internal/tensor"
)

func countOps(g *graph.Graph, op graph.OpType) int {
	c := 0
	for _, n := range g.Nodes {
		if n.Op == op {
			c++
		}
	}
	return c
}

// runBoth runs reference inference on the original and optimized graphs and
// returns the max output difference.
func runBoth(t *testing.T, g *graph.Graph, seed uint64) float64 {
	t.Helper()
	shapes, err := graph.InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(shapes[g.InputNames[0]]...)
	tensor.FillRandom(in, seed, 1)
	before, err := session.RunReference(g, map[string]*tensor.Tensor{g.InputNames[0]: in})
	if err != nil {
		t.Fatal(err)
	}
	opt := g.Clone()
	if err := optimizer.Optimize(opt); err != nil {
		t.Fatal(err)
	}
	after, err := session.RunReference(opt, map[string]*tensor.Tensor{opt.InputNames[0]: in})
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for name, b := range before {
		d := tensor.MaxAbsDiff(b, after[name])
		if d > worst {
			worst = d
		}
	}
	return worst
}

func TestOptimizeResNet18PreservesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs resnet-18 through two full sessions (~37s)")
	}
	g := models.ResNet18()
	if d := runBoth(t, g, 21); d > 1e-3 {
		t.Fatalf("optimization changed ResNet-18 output by %g", d)
	}
}

func TestOptimizeFoldsAllResNetBN(t *testing.T) {
	g := models.ResNet18()
	bnBefore := countOps(g, graph.OpBatchNorm)
	reluBefore := countOps(g, graph.OpReLU)
	if bnBefore == 0 || reluBefore == 0 {
		t.Fatal("test net must contain BN and ReLU")
	}
	if err := optimizer.Optimize(g); err != nil {
		t.Fatal(err)
	}
	if got := countOps(g, graph.OpBatchNorm); got != 0 {
		t.Errorf("%d BatchNorm nodes remain", got)
	}
	// ReLUs directly after convs/adds fuse; ResNet has every ReLU in such a
	// position.
	if got := countOps(g, graph.OpReLU); got != 0 {
		t.Errorf("%d ReLU nodes remain", got)
	}
}

func TestOptimizeSqueezeNetDropsDropout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs squeezenet through a full session (~7s)")
	}
	g := models.SqueezeNetV11()
	if countOps(g, graph.OpDropout) == 0 {
		t.Fatal("net must contain dropout")
	}
	if err := optimizer.Optimize(g); err != nil {
		t.Fatal(err)
	}
	if got := countOps(g, graph.OpDropout); got != 0 {
		t.Errorf("%d Dropout nodes remain", got)
	}
	if d := runBoth(t, models.SqueezeNetV11(), 22); d > 1e-4 {
		t.Fatalf("output changed by %g", d)
	}
}

func TestOptimizeMobileNetPreservesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs mobilenet through two full sessions (~15s)")
	}
	if d := runBoth(t, models.MobileNetV1(), 23); d > 1e-4 {
		t.Fatalf("output changed by %g", d)
	}
}

func TestBNNotFoldedThroughSharedOutput(t *testing.T) {
	// conv output feeds BN and a second consumer: folding would corrupt the
	// second path, so the pass must leave it alone.
	g := graph.New("shared")
	g.InputNames = []string{"x"}
	g.OutputNames = []string{"bn", "other"}
	g.AddNode(&graph.Node{Name: "x", Op: graph.OpInput, Outputs: []string{"x"},
		Attrs: &graph.InputAttrs{Shape: []int{1, 4, 8, 8}}})
	w := tensor.NewRandom(1, 0.3, 4, 4, 3, 3)
	g.AddWeight("w", w)
	g.AddNode(&graph.Node{Name: "conv", Op: graph.OpConv2D, Inputs: []string{"x"}, Outputs: []string{"conv"},
		WeightNames: []string{"w"},
		Attrs: &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
			Group: 1, InputCount: 4, OutputCount: 4}})
	for _, name := range []string{"g", "b", "m"} {
		g.AddWeight(name, tensor.NewRandom(2, 0.1, 4))
	}
	g.AddWeight("v", tensor.FromData([]float32{1, 1, 1, 1}, 4))
	g.AddNode(&graph.Node{Name: "bn", Op: graph.OpBatchNorm, Inputs: []string{"conv"}, Outputs: []string{"bn"},
		WeightNames: []string{"g", "b", "m", "v"}, Attrs: &graph.BatchNormAttrs{Eps: 1e-5}})
	g.AddNode(&graph.Node{Name: "other", Op: graph.OpReLU, Inputs: []string{"conv"}, Outputs: []string{"other"}})
	if err := optimizer.Optimize(g); err != nil {
		t.Fatal(err)
	}
	// BN may be replaced by Scale but must NOT be folded into the conv.
	if countOps(g, graph.OpConv2D) != 1 {
		t.Fatal("conv disappeared")
	}
	conv := g.Node("conv")
	if conv.Attrs.(*graph.Conv2DAttrs).ReLU {
		t.Error("ReLU on a shared output must not fuse")
	}
	if len(conv.WeightNames) != 1 {
		t.Error("conv weights must be untouched when output is shared")
	}
}

func TestFuseActivationIntoEltwise(t *testing.T) {
	g := graph.New("addrelu")
	g.InputNames = []string{"a", "b"}
	g.OutputNames = []string{"relu"}
	g.AddNode(&graph.Node{Name: "a", Op: graph.OpInput, Outputs: []string{"a"},
		Attrs: &graph.InputAttrs{Shape: []int{1, 4, 4, 4}}})
	g.AddNode(&graph.Node{Name: "b", Op: graph.OpInput, Outputs: []string{"b"},
		Attrs: &graph.InputAttrs{Shape: []int{1, 4, 4, 4}}})
	g.AddNode(&graph.Node{Name: "add", Op: graph.OpEltwise, Inputs: []string{"a", "b"}, Outputs: []string{"add"},
		Attrs: &graph.EltwiseAttrs{Type: graph.EltSum}})
	g.AddNode(&graph.Node{Name: "relu", Op: graph.OpReLU, Inputs: []string{"add"}, Outputs: []string{"relu"}})
	if err := optimizer.Optimize(g); err != nil {
		t.Fatal(err)
	}
	if countOps(g, graph.OpReLU) != 0 {
		t.Fatal("relu not fused")
	}
	if !g.Node("add").Attrs.(*graph.EltwiseAttrs).ReLU {
		t.Fatal("eltwise did not absorb relu")
	}
	if g.OutputNames[0] != "add" {
		t.Fatalf("output not rewired: %v", g.OutputNames)
	}
}

func TestOptimizeShrinksNodeCount(t *testing.T) {
	g := models.ResNet50()
	before := len(g.Nodes)
	if err := optimizer.Optimize(g); err != nil {
		t.Fatal(err)
	}
	after := len(g.Nodes)
	// ResNet-50: 53 BN + 49 ReLU should fuse away.
	if after >= before-90 {
		t.Errorf("nodes %d → %d; expected ≥90 removed", before, after)
	}
}

func TestOptimizedSessionMatchesUnoptimized(t *testing.T) {
	if testing.Short() {
		t.Skip("compares full sessions on a deep network (~20s)")
	}
	// End-to-end: optimized graph through the real engine equals the
	// unoptimized graph through the reference.
	g := models.ResNet18()
	shapes, _ := graph.InferShapes(g, nil)
	in := tensor.New(shapes["data"]...)
	tensor.FillRandom(in, 33, 1)
	ref, err := session.RunReference(g, map[string]*tensor.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	opt := g.Clone()
	if err := optimizer.Optimize(opt); err != nil {
		t.Fatal(err)
	}
	s := newCPUSession(t, opt)
	s.Input("data").CopyFrom(in)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(ref["prob"], s.Output("prob")); d > 2e-3 {
		t.Fatalf("optimized engine output differs by %g", d)
	}
}

func newCPUSession(t *testing.T, g *graph.Graph) *session.Session {
	t.Helper()
	s, err := session.New(g, session.Config{Backends: []backend.Backend{cpu.New(cpu.Config{Threads: 4})}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}
