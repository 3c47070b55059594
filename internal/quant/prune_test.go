package quant_test

import (
	"math"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/models"
	"mnn/internal/quant"
	"mnn/internal/session"
	"mnn/internal/tensor"
)

func TestPruneTensorSparsity(t *testing.T) {
	w := tensor.NewRandom(1, 1, 1000)
	zeroed := quant.PruneTensor(w, 0.5)
	if zeroed != 500 {
		t.Fatalf("zeroed %d, want 500", zeroed)
	}
	count := 0
	for _, v := range w.Data() {
		if v == 0 {
			count++
		}
	}
	if count < 500 {
		t.Fatalf("only %d zeros", count)
	}
}

func TestPruneKeepsLargestMagnitudes(t *testing.T) {
	w := tensor.FromData([]float32{0.1, -5, 0.2, 4, -0.05, 3, 0.15, -2}, 8)
	quant.PruneTensor(w, 0.5)
	d := w.Data()
	// The four large-magnitude entries must survive.
	if d[1] != -5 || d[3] != 4 || d[5] != 3 || d[7] != -2 {
		t.Fatalf("large weights pruned: %v", d)
	}
	// The four small ones must be gone.
	if d[0] != 0 || d[2] != 0 || d[4] != 0 || d[6] != 0 {
		t.Fatalf("small weights survived: %v", d)
	}
}

func TestPruneEdgeCases(t *testing.T) {
	w := tensor.NewRandom(2, 1, 10)
	if quant.PruneTensor(w, 0) != 0 {
		t.Error("fraction 0 must be a no-op")
	}
	if quant.PruneTensor(w.Clone(), 1.5) != 10 {
		t.Error("fraction >1 clamps to everything")
	}
	tiny := tensor.NewRandom(3, 1, 3)
	if quant.PruneTensor(tiny, 0.1) != 0 {
		t.Error("fraction below one element rounds to zero")
	}
}

func TestPruneWeightsGraph(t *testing.T) {
	g := models.SqueezeNetV11()
	rep := quant.PruneWeights(g, 0.6)
	if rep.TensorsPruned < 20 {
		t.Fatalf("pruned only %d tensors", rep.TensorsPruned)
	}
	sp := rep.Sparsity()
	if math.Abs(sp-0.6) > 0.02 {
		t.Fatalf("sparsity %.3f, want ≈0.6", sp)
	}
}

func TestPrunedModelStillRuns(t *testing.T) {
	// Moderate pruning must leave the network functional (outputs finite,
	// softmax normalized) even though values change.
	g := models.SqueezeNetV11()
	quant.PruneWeights(g, 0.3)
	in := tensor.New(1, 3, 224, 224)
	tensor.FillRandom(in, 5, 1)
	outs, err := session.RunReference(g, map[string]*tensor.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range outs["prob"].Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("pruned model produced non-finite output")
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("softmax sum %v", sum)
	}
}

func TestPruneSkipsQuantized(t *testing.T) {
	g := models.SqueezeNetV11()
	quant.QuantizeWeights(g)
	rep := quant.PruneWeights(g, 0.5)
	if rep.TensorsPruned != 0 {
		t.Fatalf("pruning must skip int8 weights, touched %d", rep.TensorsPruned)
	}
}

func TestPruneSharedWeightCountedOnce(t *testing.T) {
	g := graph.New("shared")
	g.InputNames = []string{"x"}
	g.OutputNames = []string{"b"}
	g.AddNode(&graph.Node{Name: "x", Op: graph.OpInput, Outputs: []string{"x"},
		Attrs: &graph.InputAttrs{Shape: []int{1, 4, 8, 8}}})
	g.AddWeight("w", tensor.NewRandom(1, 1, 4, 4, 3, 3))
	attrs := func() *graph.Conv2DAttrs {
		return &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
			PadH: 1, PadW: 1, Group: 1, InputCount: 4, OutputCount: 4}
	}
	g.AddNode(&graph.Node{Name: "a", Op: graph.OpConv2D, Inputs: []string{"x"}, Outputs: []string{"a"},
		WeightNames: []string{"w"}, Attrs: attrs()})
	g.AddNode(&graph.Node{Name: "b", Op: graph.OpConv2D, Inputs: []string{"a"}, Outputs: []string{"b"},
		WeightNames: []string{"w"}, Attrs: attrs()})
	rep := quant.PruneWeights(g, 0.5)
	if rep.TensorsPruned != 1 {
		t.Fatalf("shared weight pruned %d times", rep.TensorsPruned)
	}
	if rep.WeightsTotal != 144 {
		t.Fatalf("total %d, want 144", rep.WeightsTotal)
	}
}
