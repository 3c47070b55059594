package optimizer_test

import (
	"bytes"
	"sync"
	"testing"

	"mnn/internal/converter"
	"mnn/internal/graph"
	"mnn/internal/optimizer"
	"mnn/internal/tensor"
)

// unsetChannels is a pointwise then a depthwise convolution whose input
// channel counts are left for shape inference to fill in.
func unsetChannels() *graph.Graph {
	g := graph.New("unset")
	g.AddNode(&graph.Node{Name: "data", Op: graph.OpInput, Outputs: []string{"data"},
		Attrs: &graph.InputAttrs{Shape: []int{1, 16, 8, 8}}})
	g.InputNames = []string{"data"}
	g.AddWeight("pw_w", tensor.NewRandom(1, 0.2, 32, 16, 1, 1))
	g.AddWeight("dw_w", tensor.NewRandom(2, 0.2, 32, 1, 3, 3))
	g.AddNode(&graph.Node{Name: "pw", Op: graph.OpConv2D, Inputs: []string{"data"}, Outputs: []string{"pw"},
		WeightNames: []string{"pw_w"},
		Attrs:       &graph.Conv2DAttrs{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1, Group: 1, OutputCount: 32, ReLU: true}})
	g.AddNode(&graph.Node{Name: "dw", Op: graph.OpConv2D, Inputs: []string{"pw"}, Outputs: []string{"dw"},
		WeightNames: []string{"dw_w"},
		Attrs:       &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1, PadH: 1, PadW: 1, Group: 32, OutputCount: 32}})
	g.OutputNames = []string{"dw"}
	return g
}

// TestPlanInt8LeavesTheGraphAlone: planning a graph whose convolutions leave
// their input channels unset changes none of its model-file bytes.
func TestPlanInt8LeavesTheGraphAlone(t *testing.T) {
	g := unsetChannels()
	save := func() []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := converter.Save(g, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := save()
	plan, err := optimizer.PlanInt8(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Int8Nodes+plan.FP32Nodes != 2 {
		t.Fatalf("plan counts %d int8 and %d fp32 nodes, want 2 in all", plan.Int8Nodes, plan.FP32Nodes)
	}
	if !bytes.Equal(save(), before) {
		t.Fatal("PlanInt8 changed the graph's model-file bytes")
	}
	for _, name := range []string{"pw", "dw"} {
		if c := g.Node(name).Attrs.(*graph.Conv2DAttrs).InputCount; c != 0 {
			t.Fatalf("PlanInt8 wrote %s's input channel count %d into the graph", name, c)
		}
	}
}

// TestPlanInt8Concurrent: two goroutines plan one graph at once, to the
// same partition; the race detector sees no write to the shared graph.
func TestPlanInt8Concurrent(t *testing.T) {
	g := unsetChannels()
	var plans [2]*optimizer.Int8Plan
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := optimizer.PlanInt8(g, nil)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}()
	}
	wg.Wait()
	if plans[0] == nil || plans[1] == nil {
		return
	}
	for _, name := range []string{"pw", "dw"} {
		if plans[0].Int8[name] != plans[1].Int8[name] {
			t.Fatalf("%s: int8 %v in one plan, %v in the other", name, plans[0].Int8[name], plans[1].Int8[name])
		}
	}
}
