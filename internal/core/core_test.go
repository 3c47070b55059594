package core

import (
	"testing"

	"mnn/internal/graph"
	"mnn/internal/tensor"
)

func convAttrs(k, ic, oc int) *graph.Conv2DAttrs {
	return &graph.Conv2DAttrs{
		KernelH: k, KernelW: k, StrideH: 1, StrideW: 1,
		PadH: k / 2, PadW: k / 2, Group: 1,
		InputCount: ic, OutputCount: oc,
	}
}

// convAttrsNoPad mirrors the paper's Table 1 microbenchmark convolutions,
// which run unpadded.
func convAttrsNoPad(k, ic, oc int) *graph.Conv2DAttrs {
	a := convAttrs(k, ic, oc)
	a.PadH, a.PadW = 0, 0
	return a
}

// Table 1 of the paper: the cost model must pick sliding window for the
// small-channel stem conv, and Winograd for the two channel-heavy cases —
// with a larger tile when the feature map is large.
func TestSchemeSelectionTable1Shapes(t *testing.T) {
	// (k, ic, oc, spatial) = (2, 3, 16, 224): sliding must win.
	d1 := SelectConvScheme(convAttrsNoPad(2, 3, 16), []int{1, 3, 224, 224})
	if d1.Scheme != SchemeSliding {
		t.Errorf("case (2,3,16,224): got %v, want sliding", d1.Scheme)
	}

	// (2, 512, 512, 16): Winograd with a small-to-mid tile must win
	// (large tiles waste edge lanes on a 15×15 output).
	d2 := SelectConvScheme(convAttrsNoPad(2, 512, 512), []int{1, 512, 16, 16})
	if d2.Scheme != SchemeWinograd {
		t.Fatalf("case (2,512,512,16): got %v, want winograd", d2.Scheme)
	}
	if d2.TileH > 4 {
		t.Errorf("case (2,512,512,16): tile %d too large for a 16×16 map", d2.TileH)
	}

	// (3, 64, 64, 112): Winograd with the max tile must win.
	d3 := SelectConvScheme(convAttrsNoPad(3, 64, 64), []int{1, 64, 112, 112})
	if d3.Scheme != SchemeWinograd {
		t.Fatalf("case (3,64,64,112): got %v, want winograd", d3.Scheme)
	}
	if d3.TileH != 6 {
		t.Errorf("case (3,64,64,112): tile %d, want 6", d3.TileH)
	}
}

func TestSchemeSelection1x1IsStrassen(t *testing.T) {
	// Channels must exceed the calibrated Strassen recursion floor for the
	// fast path to claim savings.
	d := SelectConvScheme(convAttrs(1, 256, 256), []int{1, 256, 56, 56})
	if d.Scheme != SchemeStrassen1x1 {
		t.Fatalf("1x1: got %v", d.Scheme)
	}
	if d.EffMULs >= d.DirectMULs {
		t.Errorf("strassen eff MULs %d not below direct %d", d.EffMULs, d.DirectMULs)
	}
}

func TestSchemeSelection1x1SmallNoSavings(t *testing.T) {
	// Tiny 1×1 below the Strassen recursion bound: EffMULs == DirectMULs.
	d := SelectConvScheme(convAttrs(1, 8, 8), []int{1, 8, 4, 4})
	if d.Scheme != SchemeStrassen1x1 {
		t.Fatalf("got %v", d.Scheme)
	}
	if d.EffMULs != d.DirectMULs {
		t.Errorf("tiny 1x1 should not claim savings: eff %d direct %d", d.EffMULs, d.DirectMULs)
	}
}

func TestSchemeSelectionDepthwise(t *testing.T) {
	a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
		PadH: 1, PadW: 1, Group: 32, InputCount: 32, OutputCount: 32}
	d := SelectConvScheme(a, []int{1, 32, 56, 56})
	if d.Scheme != SchemeDepthwise {
		t.Fatalf("depthwise: got %v", d.Scheme)
	}
}

func TestSchemeSelectionGroupedFallsBack(t *testing.T) {
	a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
		PadH: 1, PadW: 1, Group: 4, InputCount: 32, OutputCount: 32}
	d := SelectConvScheme(a, []int{1, 32, 28, 28})
	if d.Scheme != SchemeIm2col {
		t.Fatalf("grouped: got %v", d.Scheme)
	}
}

func TestSchemeSelectionStride2UsesSliding(t *testing.T) {
	a := convAttrs(3, 64, 128)
	a.StrideH, a.StrideW = 2, 2
	d := SelectConvScheme(a, []int{1, 64, 56, 56})
	if d.Scheme != SchemeSliding {
		t.Fatalf("stride-2: got %v (winograd must be excluded)", d.Scheme)
	}
}

func TestSchemeSelectionAsymmetricKernelWino(t *testing.T) {
	// 1×7 convolution with many channels: per-axis Winograd should win and
	// tile only the W axis.
	a := &graph.Conv2DAttrs{KernelH: 1, KernelW: 7, StrideH: 1, StrideW: 1,
		PadH: 0, PadW: 3, Group: 1, InputCount: 128, OutputCount: 128}
	d := SelectConvScheme(a, []int{1, 128, 17, 17})
	if d.Scheme != SchemeWinograd {
		t.Fatalf("1x7: got %v, want winograd", d.Scheme)
	}
	if d.TileH != 1 || d.TileW < 2 {
		t.Errorf("1x7 tiles = %dx%d, want 1xN", d.TileH, d.TileW)
	}
}

func TestSchemeWinogradEffMULsBelowDirect(t *testing.T) {
	d := SelectConvScheme(convAttrs(3, 64, 64), []int{1, 64, 112, 112})
	if d.EffMULs >= d.DirectMULs {
		t.Fatalf("winograd eff %d >= direct %d", d.EffMULs, d.DirectMULs)
	}
}

// --- backend selection (Eq. 4–5) ---

type fakeBackend struct {
	name     string
	flops    float64
	tSched   float64
	supports func(*graph.Node) bool
}

func (f *fakeBackend) Name() string                { return f.name }
func (f *fakeBackend) FLOPS() float64              { return f.flops }
func (f *fakeBackend) ScheduleOverheadMs() float64 { return f.tSched }
func (f *fakeBackend) Supports(n *graph.Node) bool {
	if f.supports == nil {
		return true
	}
	return f.supports(n)
}

func bigConvGraph(t *testing.T) (*graph.Graph, graph.ShapeMap) {
	t.Helper()
	g := graph.New("sel")
	g.InputNames = []string{"in"}
	g.OutputNames = []string{"conv2"}
	g.AddNode(&graph.Node{Name: "in", Op: graph.OpInput, Outputs: []string{"in"},
		Attrs: &graph.InputAttrs{Shape: []int{1, 64, 56, 56}}})
	g.AddWeight("w1", tensor.New(64, 64, 3, 3))
	g.AddNode(&graph.Node{Name: "conv1", Op: graph.OpConv2D, Inputs: []string{"in"}, Outputs: []string{"conv1"},
		WeightNames: []string{"w1"}, Attrs: convAttrs(3, 64, 64)})
	g.AddWeight("w2", tensor.New(64, 64, 3, 3))
	g.AddNode(&graph.Node{Name: "conv2", Op: graph.OpConv2D, Inputs: []string{"conv1"}, Outputs: []string{"conv2"},
		WeightNames: []string{"w2"}, Attrs: convAttrs(3, 64, 64)})
	shapes, err := graph.InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, shapes
}

func TestSelectBackendPrefersFasterGPU(t *testing.T) {
	g, shapes := bigConvGraph(t)
	cpu := &fakeBackend{name: "CPU", flops: 8e9}
	gpu := &fakeBackend{name: "Vulkan", flops: 40e9, tSched: 0.01}
	assign, costs := SelectBackend(g, shapes, []CostProvider{cpu, gpu})
	if costs["Vulkan"] >= costs["CPU"] {
		t.Fatalf("GPU should be cheaper: %v", costs)
	}
	if assign["conv1"] != "Vulkan" || assign["conv2"] != "Vulkan" {
		t.Fatalf("assignment: %v", assign)
	}
}

func TestSelectBackendHighOverheadGPULosesOnTinyGraph(t *testing.T) {
	// A graph of many negligible ops: per-op t_schedule dominates, CPU wins.
	g := graph.New("tiny")
	g.InputNames = []string{"in"}
	g.AddNode(&graph.Node{Name: "in", Op: graph.OpInput, Outputs: []string{"in"},
		Attrs: &graph.InputAttrs{Shape: []int{1, 4, 4, 4}}})
	prev := "in"
	for i := 0; i < 20; i++ {
		name := "relu" + string(rune('a'+i))
		g.AddNode(&graph.Node{Name: name, Op: graph.OpReLU, Inputs: []string{prev}, Outputs: []string{name}})
		prev = name
	}
	g.OutputNames = []string{prev}
	shapes, err := graph.InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	cpu := &fakeBackend{name: "CPU", flops: 8e9}
	gpu := &fakeBackend{name: "OpenCL", flops: 40e9, tSched: 0.05}
	assign, costs := SelectBackend(g, shapes, []CostProvider{cpu, gpu})
	if costs["CPU"] >= costs["OpenCL"] {
		t.Fatalf("CPU should win on overhead-dominated graph: %v", costs)
	}
	if assign["relua"] != "CPU" {
		t.Fatalf("assignment: %v", assign)
	}
}

func TestSelectBackendHybridFallback(t *testing.T) {
	// GPU that does not support Pool: the pool node must be assigned to CPU
	// even when the GPU wins overall.
	g := graph.New("hybrid")
	g.InputNames = []string{"in"}
	g.AddNode(&graph.Node{Name: "in", Op: graph.OpInput, Outputs: []string{"in"},
		Attrs: &graph.InputAttrs{Shape: []int{1, 64, 56, 56}}})
	g.AddWeight("w1", tensor.New(64, 64, 3, 3))
	g.AddNode(&graph.Node{Name: "conv1", Op: graph.OpConv2D, Inputs: []string{"in"}, Outputs: []string{"conv1"},
		WeightNames: []string{"w1"}, Attrs: convAttrs(3, 64, 64)})
	g.AddNode(&graph.Node{Name: "pool1", Op: graph.OpPool, Inputs: []string{"conv1"}, Outputs: []string{"pool1"},
		Attrs: &graph.PoolAttrs{Type: graph.MaxPool, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}})
	g.OutputNames = []string{"pool1"}
	shapes, err := graph.InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	cpu := &fakeBackend{name: "CPU", flops: 8e9}
	gpu := &fakeBackend{name: "Vulkan", flops: 80e9, tSched: 0.01,
		supports: func(n *graph.Node) bool { return n.Op != graph.OpPool }}
	assign, _ := SelectBackend(g, shapes, []CostProvider{cpu, gpu})
	if assign["conv1"] != "Vulkan" {
		t.Fatalf("conv should go to GPU: %v", assign)
	}
	if assign["pool1"] != "CPU" {
		t.Fatalf("pool must fall back to CPU: %v", assign)
	}
}

func TestSelectBackendEmptyProviders(t *testing.T) {
	g, shapes := bigConvGraph(t)
	assign, costs := SelectBackend(g, shapes, nil)
	if len(assign) != 0 || len(costs) != 0 {
		t.Fatal("empty providers should yield empty results")
	}
}

func TestMeasureHostFLOPS(t *testing.T) {
	r := MeasureHostFLOPS(64, 2)
	if r.FLOPS <= 0 || r.Elapsed <= 0 || r.Size != 64 {
		t.Fatalf("bad calibration: %+v", r)
	}
	// Any machine running this test does better than 10 MMAC/s and worse
	// than 10 TMAC/s single-threaded.
	if r.FLOPS < 1e7 || r.FLOPS > 1e13 {
		t.Fatalf("implausible FLOPS %g", r.FLOPS)
	}
	// Defaults kick in for degenerate arguments.
	d := MeasureHostFLOPS(0, 0)
	if d.Size != 256 {
		t.Fatalf("default size: %d", d.Size)
	}
}
