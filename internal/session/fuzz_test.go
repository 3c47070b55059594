package session

import (
	"context"
	"fmt"
	"testing"

	"mnn/internal/backend"
	"mnn/internal/cpu"
	"mnn/internal/device"
	"mnn/internal/gpusim"
	"mnn/internal/graph"
	"mnn/internal/simclock"
	"mnn/internal/tensor"
)

// randomGraph builds a random but valid CNN: a chain of convolutions,
// pools and activations with occasional residual adds and channel concats,
// ending in global pooling + FC + softmax. Every op kind the engine's fast
// paths specialize on can appear.
func randomGraph(seed uint64) *graph.Graph {
	r := tensor.NewRNG(seed)
	g := graph.New(fmt.Sprintf("fuzz-%d", seed))
	g.InputNames = []string{"data"}
	c := r.Intn(6)*2 + 3 // 3..13 channels
	h := r.Intn(12) + 12 // 12..23
	g.AddNode(&graph.Node{Name: "data", Op: graph.OpInput, Outputs: []string{"data"},
		Attrs: &graph.InputAttrs{Shape: []int{1, c, h, h}}})

	widx := 0
	weight := func(scale float32, shape ...int) string {
		widx++
		name := fmt.Sprintf("w%d", widx)
		t := tensor.New(shape...)
		tensor.FillRandom(t, seed+uint64(widx)*13, scale)
		g.AddWeight(name, t)
		return name
	}

	cur := "data"
	curC, curH := c, h
	// Remember one earlier tensor per (C,H) signature for residual adds.
	bySig := map[[2]int]string{}

	steps := r.Intn(8) + 4
	for i := 0; i < steps; i++ {
		name := fmt.Sprintf("op%d", i)
		switch r.Intn(8) {
		case 0, 1: // square conv
			k := []int{1, 2, 3, 5}[r.Intn(4)]
			if k > curH {
				k = 1
			}
			oc := r.Intn(12)*2 + 2
			stride := 1
			if r.Intn(3) == 0 && curH >= 8 {
				stride = 2
			}
			a := &graph.Conv2DAttrs{KernelH: k, KernelW: k, StrideH: stride, StrideW: stride,
				PadH: k / 2, PadW: k / 2, Group: 1, InputCount: curC, OutputCount: oc,
				ReLU: r.Intn(2) == 0}
			g.AddNode(&graph.Node{Name: name, Op: graph.OpConv2D, Inputs: []string{cur}, Outputs: []string{name},
				WeightNames: []string{weight(0.4, oc, curC, k, k), weight(0.1, oc)}, Attrs: a})
			oh, _, err := graph.ConvOutputSize(curH, curH, a)
			if err != nil {
				continue
			}
			cur, curC, curH = name, oc, oh
		case 2: // asymmetric conv (the Figure 8 shapes)
			kw := []int{3, 5, 7}[r.Intn(3)]
			if kw > curH {
				kw = 3
			}
			if kw > curH {
				continue
			}
			a := &graph.Conv2DAttrs{KernelH: 1, KernelW: kw, StrideH: 1, StrideW: 1,
				PadH: 0, PadW: kw / 2, Group: 1, InputCount: curC, OutputCount: curC}
			g.AddNode(&graph.Node{Name: name, Op: graph.OpConv2D, Inputs: []string{cur}, Outputs: []string{name},
				WeightNames: []string{weight(0.4, curC, curC, 1, kw), weight(0.1, curC)}, Attrs: a})
			cur = name
		case 3: // depthwise
			if curH < 3 {
				continue
			}
			a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
				PadH: 1, PadW: 1, Group: curC, InputCount: curC, OutputCount: curC, ReLU6: r.Intn(2) == 0}
			g.AddNode(&graph.Node{Name: name, Op: graph.OpConv2D, Inputs: []string{cur}, Outputs: []string{name},
				WeightNames: []string{weight(0.4, curC, 1, 3, 3), weight(0.1, curC)}, Attrs: a})
			cur = name
		case 4: // pool
			if curH < 4 {
				continue
			}
			pt := graph.MaxPool
			if r.Intn(2) == 0 {
				pt = graph.AvgPool
			}
			a := &graph.PoolAttrs{Type: pt, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}
			g.AddNode(&graph.Node{Name: name, Op: graph.OpPool, Inputs: []string{cur}, Outputs: []string{name},
				Attrs: a})
			cur, curH = name, tensor.UpDiv(curH, 2) // Caffe's ceil mode
		case 5: // activation
			ops := []graph.OpType{graph.OpReLU, graph.OpReLU6, graph.OpSigmoid, graph.OpTanh}
			g.AddNode(&graph.Node{Name: name, Op: ops[r.Intn(len(ops))], Inputs: []string{cur}, Outputs: []string{name}})
			cur = name
		case 6: // residual add if a matching earlier tensor exists
			if prev, ok := bySig[[2]int{curC, curH}]; ok && prev != cur {
				g.AddNode(&graph.Node{Name: name, Op: graph.OpEltwise,
					Inputs: []string{prev, cur}, Outputs: []string{name},
					Attrs: &graph.EltwiseAttrs{Type: graph.EltSum}})
				cur = name
			}
		case 7: // self-concat doubles channels
			if curC <= 24 {
				g.AddNode(&graph.Node{Name: name, Op: graph.OpConcat,
					Inputs: []string{cur, cur}, Outputs: []string{name},
					Attrs: &graph.ConcatAttrs{Axis: 1}})
				cur, curC = name, curC*2
			}
		}
		bySig[[2]int{curC, curH}] = cur
	}
	g.AddNode(&graph.Node{Name: "gap", Op: graph.OpPool, Inputs: []string{cur}, Outputs: []string{"gap"},
		Attrs: &graph.PoolAttrs{Type: graph.AvgPool, Global: true}})
	out := r.Intn(10) + 2
	g.AddNode(&graph.Node{Name: "fc", Op: graph.OpInnerProduct, Inputs: []string{"gap"}, Outputs: []string{"fc"},
		WeightNames: []string{weight(0.4, out, curC), weight(0.1, out)},
		Attrs:       &graph.InnerProductAttrs{OutputCount: out}})
	g.AddNode(&graph.Node{Name: "prob", Op: graph.OpSoftmax, Inputs: []string{"fc"}, Outputs: []string{"prob"},
		Attrs: &graph.SoftmaxAttrs{Axis: 1}})
	g.OutputNames = []string{"prob"}
	return g
}

func TestSessionFuzzRandomGraphs(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 8
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := randomGraph(seed)
			if err := g.Validate(); err != nil {
				t.Fatalf("generator produced invalid graph: %v", err)
			}
			shapes, err := graph.InferShapes(g, nil)
			if err != nil {
				t.Fatalf("shape inference: %v", err)
			}
			in := tensor.New(shapes["data"]...)
			tensor.FillRandom(in, seed*31, 1)
			want, err := RunReference(g, map[string]*tensor.Tensor{"data": in})
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			threads := int(seed%4) + 1
			s, err := New(g, Config{Backends: []backend.Backend{cpu.New(cpu.Config{Threads: threads})}})
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			s.Input("data").CopyFrom(in)
			if err := s.Run(context.Background()); err != nil {
				t.Fatalf("run: %v", err)
			}
			if d := tensor.MaxAbsDiff(want["prob"], s.Output("prob")); d > 5e-3 {
				t.Fatalf("engine vs reference diff %g", d)
			}
			// Second run must be identical (buffer-reuse correctness).
			first := s.Output("prob").Clone()
			if err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if d := tensor.MaxAbsDiff(first, s.Output("prob")); d != 0 {
				t.Fatalf("outputs drifted across runs by %g", d)
			}
		})
	}
}

func TestSessionFuzzHybridGPU(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 3
	}
	for seed := uint64(100); seed < uint64(100+n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := randomGraph(seed)
			shapes, err := graph.InferShapes(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			in := tensor.New(shapes["data"]...)
			tensor.FillRandom(in, seed*37, 1)
			want, err := RunReference(g, map[string]*tensor.Tensor{"data": in})
			if err != nil {
				t.Fatal(err)
			}
			clock := simclock.New()
			cpuB := cpu.New(cpu.Config{Threads: 2, Device: device.Mate20, Clock: clock})
			gpuB, err := gpusim.New(gpusim.Config{Kind: backend.KindOpenCL, Device: device.Mate20,
				Clock: clock, DecoupledEncode: true, ComputeThreads: 2})
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(g, Config{Backends: []backend.Backend{cpuB, gpuB}})
			if err != nil {
				t.Fatal(err)
			}
			s.Input("data").CopyFrom(in)
			if err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if d := tensor.MaxAbsDiff(want["prob"], s.Output("prob")); d > 5e-3 {
				t.Fatalf("hybrid engine vs reference diff %g", d)
			}
		})
	}
}
