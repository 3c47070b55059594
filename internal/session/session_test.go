package session

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"mnn/internal/backend"
	"mnn/internal/cpu"
	"mnn/internal/device"
	"mnn/internal/gpusim"
	"mnn/internal/graph"
	"mnn/internal/models"
	"mnn/internal/simclock"
	"mnn/internal/tensor"
)

// smallCNN: conv-bn-relu → dwconv → 1x1 conv → add(residual) → pool → fc →
// softmax. Touches every major kernel family and the residual pattern.
func smallCNN() *graph.Graph {
	g := graph.New("smallcnn")
	g.InputNames = []string{"data"}
	g.OutputNames = []string{"prob"}
	g.AddNode(&graph.Node{Name: "data", Op: graph.OpInput, Outputs: []string{"data"},
		Attrs: &graph.InputAttrs{Shape: []int{1, 3, 16, 16}}})

	add := func(n *graph.Node) { g.AddNode(n) }
	w := func(name string, scale float32, shape ...int) string {
		t := tensor.New(shape...)
		tensor.FillRandom(t, uint64(len(g.Weights))+77, scale)
		g.AddWeight(name, t)
		return name
	}

	add(&graph.Node{Name: "conv1", Op: graph.OpConv2D, Inputs: []string{"data"}, Outputs: []string{"conv1"},
		WeightNames: []string{w("c1w", 0.3, 8, 3, 3, 3), w("c1b", 0.1, 8)},
		Attrs: &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
			Group: 1, InputCount: 3, OutputCount: 8}})
	// BN with positive variance.
	gamma := w("bng", 0.1, 8)
	for i, v := range g.Weights[gamma].Data() {
		g.Weights[gamma].Data()[i] = v + 1
	}
	vr := w("bnv", 0.05, 8)
	for i, v := range g.Weights[vr].Data() {
		g.Weights[vr].Data()[i] = v + 1
	}
	add(&graph.Node{Name: "bn1", Op: graph.OpBatchNorm, Inputs: []string{"conv1"}, Outputs: []string{"bn1"},
		WeightNames: []string{gamma, w("bnb", 0.1, 8), w("bnm", 0.1, 8), vr},
		Attrs:       &graph.BatchNormAttrs{Eps: 1e-5}})
	add(&graph.Node{Name: "relu1", Op: graph.OpReLU, Inputs: []string{"bn1"}, Outputs: []string{"relu1"}})
	add(&graph.Node{Name: "dw", Op: graph.OpConv2D, Inputs: []string{"relu1"}, Outputs: []string{"dw"},
		WeightNames: []string{w("dww", 0.3, 8, 1, 3, 3), w("dwb", 0.1, 8)},
		Attrs: &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
			Group: 8, InputCount: 8, OutputCount: 8, ReLU: true}})
	add(&graph.Node{Name: "pw", Op: graph.OpConv2D, Inputs: []string{"dw"}, Outputs: []string{"pw"},
		WeightNames: []string{w("pww", 0.3, 8, 8, 1, 1), w("pwb", 0.1, 8)},
		Attrs: &graph.Conv2DAttrs{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1,
			Group: 1, InputCount: 8, OutputCount: 8}})
	add(&graph.Node{Name: "res", Op: graph.OpEltwise, Inputs: []string{"relu1", "pw"}, Outputs: []string{"res"},
		Attrs: &graph.EltwiseAttrs{Type: graph.EltSum}})
	add(&graph.Node{Name: "pool", Op: graph.OpPool, Inputs: []string{"res"}, Outputs: []string{"pool"},
		Attrs: &graph.PoolAttrs{Type: graph.AvgPool, Global: true}})
	add(&graph.Node{Name: "fc", Op: graph.OpInnerProduct, Inputs: []string{"pool"}, Outputs: []string{"fc"},
		WeightNames: []string{w("fcw", 0.3, 10, 8), w("fcb", 0.1, 10)},
		Attrs:       &graph.InnerProductAttrs{OutputCount: 10}})
	add(&graph.Node{Name: "prob", Op: graph.OpSoftmax, Inputs: []string{"fc"}, Outputs: []string{"prob"},
		Attrs: &graph.SoftmaxAttrs{Axis: 1}})
	return g
}

func fillInput(s *Session, name string, seed uint64) {
	in := s.Input(name)
	tmp := tensor.New(in.Shape()...)
	tensor.FillRandom(tmp, seed, 1)
	in.CopyFrom(tmp)
}

func refOutput(t *testing.T, g *graph.Graph, seed uint64) *tensor.Tensor {
	t.Helper()
	shapes, err := graph.InferShapes(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(shapes[g.InputNames[0]]...)
	tensor.FillRandom(in, seed, 1)
	outs, err := RunReference(g, map[string]*tensor.Tensor{g.InputNames[0]: in})
	if err != nil {
		t.Fatal(err)
	}
	return outs[g.OutputNames[0]]
}

func TestSessionMatchesReferenceCPU(t *testing.T) {
	g := smallCNN()
	want := refOutput(t, g, 5)
	for _, threads := range []int{1, 4} {
		s, err := New(g, Config{Backends: []backend.Backend{cpu.New(cpu.Config{Threads: threads})}})
		if err != nil {
			t.Fatal(err)
		}
		fillInput(s, "data", 5)
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		got := s.Output("prob")
		if d := tensor.MaxAbsDiff(want, got); d > 1e-3 {
			t.Fatalf("threads=%d: max diff vs reference %g", threads, d)
		}
	}
}

func TestSessionMatchesReferenceGPUSim(t *testing.T) {
	g := smallCNN()
	want := refOutput(t, g, 6)
	clock := simclock.New()
	cpuB := cpu.New(cpu.Config{Threads: 2, Device: device.MI6, Clock: clock})
	gpuB, err := gpusim.New(gpusim.Config{Kind: backend.KindVulkan, Device: device.MI6,
		Clock: clock, DecoupledEncode: true, ComputeThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, Config{Backends: []backend.Backend{cpuB, gpuB}})
	if err != nil {
		t.Fatal(err)
	}
	fillInput(s, "data", 6)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, s.Output("prob")); d > 1e-3 {
		t.Fatalf("max diff vs reference %g", d)
	}
	if clock.TotalMs() <= 0 {
		t.Fatal("simulated clock must have advanced")
	}
}

// heavyCNN is large enough that a GPU wins the Equation 4 comparison on an
// MI6-class device: two 64-channel 3×3 convolutions at 56×56 plus a small
// FC head.
func heavyCNN() *graph.Graph {
	g := graph.New("heavycnn")
	g.InputNames = []string{"data"}
	g.OutputNames = []string{"prob"}
	g.AddNode(&graph.Node{Name: "data", Op: graph.OpInput, Outputs: []string{"data"},
		Attrs: &graph.InputAttrs{Shape: []int{1, 16, 56, 56}}})
	w := func(name string, scale float32, shape ...int) string {
		t := tensor.New(shape...)
		tensor.FillRandom(t, uint64(len(g.Weights))+31, scale)
		g.AddWeight(name, t)
		return name
	}
	g.AddNode(&graph.Node{Name: "conv1", Op: graph.OpConv2D, Inputs: []string{"data"}, Outputs: []string{"conv1"},
		WeightNames: []string{w("c1w", 0.1, 64, 16, 3, 3), w("c1b", 0.1, 64)},
		Attrs: &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
			Group: 1, InputCount: 16, OutputCount: 64, ReLU: true}})
	g.AddNode(&graph.Node{Name: "conv2", Op: graph.OpConv2D, Inputs: []string{"conv1"}, Outputs: []string{"conv2"},
		WeightNames: []string{w("c2w", 0.05, 64, 64, 3, 3), w("c2b", 0.1, 64)},
		Attrs: &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
			Group: 1, InputCount: 64, OutputCount: 64, ReLU: true}})
	g.AddNode(&graph.Node{Name: "gap", Op: graph.OpPool, Inputs: []string{"conv2"}, Outputs: []string{"gap"},
		Attrs: &graph.PoolAttrs{Type: graph.AvgPool, Global: true}})
	g.AddNode(&graph.Node{Name: "fc", Op: graph.OpInnerProduct, Inputs: []string{"gap"}, Outputs: []string{"fc"},
		WeightNames: []string{w("fcw", 0.2, 10, 64), w("fcb", 0.1, 10)},
		Attrs:       &graph.InnerProductAttrs{OutputCount: 10}})
	g.AddNode(&graph.Node{Name: "prob", Op: graph.OpSoftmax, Inputs: []string{"fc"}, Outputs: []string{"prob"},
		Attrs: &graph.SoftmaxAttrs{Axis: 1}})
	return g
}

func TestSessionHybridScheduling(t *testing.T) {
	// Vulkan does not support InnerProduct: fc must land on CPU even when
	// the GPU wins overall, and staging copies must appear.
	g := heavyCNN()
	cpuB := cpu.New(cpu.Config{Threads: 2, Device: device.MI6})
	gpuB, err := gpusim.New(gpusim.Config{Kind: backend.KindVulkan, Device: device.MI6,
		DecoupledEncode: true, ComputeThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, Config{Backends: []backend.Backend{cpuB, gpuB}})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Assignment["fc"] != "CPU" {
		t.Errorf("fc assigned to %s, want CPU", st.Assignment["fc"])
	}
	// The convolution-heavy body should beat the CPU on this device.
	if st.Assignment["conv1"] != "Vulkan" {
		t.Errorf("conv1 assigned to %s, want Vulkan", st.Assignment["conv1"])
	}
	if st.CrossBackendCopies == 0 {
		t.Error("hybrid schedule must stage tensors across backends")
	}
	fillInput(s, "data", 7)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := refOutput(t, g, 7)
	if d := tensor.MaxAbsDiff(want, s.Output("prob")); d > 1e-3 {
		t.Fatalf("hybrid output differs from reference by %g", d)
	}
}

func TestSessionPinnedAssignment(t *testing.T) {
	g := smallCNN()
	cpuB := cpu.New(cpu.Config{Threads: 1})
	assign := core0Assignment(g, "CPU")
	s, err := New(g, Config{Backends: []backend.Backend{cpuB}, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	fillInput(s, "data", 8)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func core0Assignment(g *graph.Graph, name string) map[string]string {
	m := map[string]string{}
	for _, n := range g.Nodes {
		m[n.Name] = name
	}
	return m
}

func TestSessionNoPreparationMatches(t *testing.T) {
	g := smallCNN()
	want := refOutput(t, g, 9)
	s, err := New(g, Config{Backends: []backend.Backend{cpu.New(cpu.Config{Threads: 2})},
		NoPreparation: true})
	if err != nil {
		t.Fatal(err)
	}
	fillInput(s, "data", 9)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, s.Output("prob")); d > 1e-3 {
		t.Fatalf("NoPreparation output differs by %g", d)
	}
}

func TestSessionRepeatedRunsStable(t *testing.T) {
	g := smallCNN()
	s, err := New(g, Config{Backends: []backend.Backend{cpu.New(cpu.Config{Threads: 2})}})
	if err != nil {
		t.Fatal(err)
	}
	fillInput(s, "data", 10)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := s.Output("prob").Clone()
	for i := 0; i < 3; i++ {
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if d := tensor.MaxAbsDiff(first, s.Output("prob")); d != 0 {
		t.Fatalf("outputs drifted across runs by %g", d)
	}
}

func TestSessionStats(t *testing.T) {
	g := smallCNN()
	s, err := New(g, Config{Backends: []backend.Backend{cpu.New(cpu.Config{Threads: 1})}})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ArenaFloats["CPU"] <= 0 {
		t.Error("arena must be planned")
	}
	if len(st.SchemeCounts) == 0 {
		t.Error("scheme counts must be recorded")
	}
	if st.Assignment["conv1"] != "CPU" {
		t.Errorf("assignment: %v", st.Assignment)
	}
}

func TestSessionRejectsBadConfig(t *testing.T) {
	g := smallCNN()
	if _, err := New(g, Config{}); err == nil {
		t.Fatal("no backends must fail")
	}
	gpuB, _ := gpusim.New(gpusim.Config{Kind: backend.KindVulkan, Device: device.MI6})
	if _, err := New(g, Config{Backends: []backend.Backend{gpuB}}); err == nil {
		t.Fatal("non-CPU first backend must fail")
	}
}

func TestSessionMobileNetV1EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full network in -short mode")
	}
	g := models.MobileNetV1()
	s, err := New(g, Config{Backends: []backend.Backend{cpu.New(cpu.Config{Threads: 4})}})
	if err != nil {
		t.Fatal(err)
	}
	fillInput(s, "data", 12)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := s.Output("prob")
	var sum float64
	for _, v := range out.Data() {
		sum += float64(v)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("softmax output sums to %v", sum)
	}
	// Scheme mix: MobileNet has 13 depthwise + 14 pointwise(1x1) + 1 stem.
	st := s.Stats()
	if st.SchemeCounts["depthwise"] != 13 {
		t.Errorf("depthwise count: %v", st.SchemeCounts)
	}
	if st.SchemeCounts["strassen-1x1"] < 13 {
		t.Errorf("1x1 count: %v", st.SchemeCounts)
	}
}

func TestSessionInceptionV3Correctness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs inception-v3 against the reference interpreter (~58s)")
	}
	// Inception-v3 exercises asymmetric Winograd and concat-heavy graphs;
	// compare CPU session against the reference on a reduced input.
	g := models.InceptionV3()
	s, err := New(g, Config{Backends: []backend.Backend{cpu.New(cpu.Config{Threads: 4})}})
	if err != nil {
		t.Fatal(err)
	}
	fillInput(s, "data", 13)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := refOutput(t, g, 13)
	if d := tensor.MaxAbsDiff(want, s.Output("prob")); d > 5e-3 {
		t.Fatalf("inception output differs from reference by %g", d)
	}
}

func TestRunProfiled(t *testing.T) {
	g := smallCNN()
	s, err := New(g, Config{Backends: []backend.Backend{cpu.New(cpu.Config{Threads: 2})}})
	if err != nil {
		t.Fatal(err)
	}
	fillInput(s, "data", 14)
	p, err := s.RunProfiled(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Entries) != len(g.Nodes) {
		t.Fatalf("entries %d, nodes %d", len(p.Entries), len(g.Nodes))
	}
	var sum time.Duration
	for _, e := range p.Entries {
		if e.Backend != "CPU" {
			t.Fatalf("entry backend %q", e.Backend)
		}
		sum += e.Wall
	}
	if sum > p.Total || p.Total == 0 {
		t.Fatalf("per-op sum %v vs total %v", sum, p.Total)
	}
	// Hottest/ByOp orderings are descending.
	hot := p.Hottest(3)
	for i := 1; i < len(hot); i++ {
		if hot[i].Wall > hot[i-1].Wall {
			t.Fatal("Hottest not sorted")
		}
	}
	by := p.ByOp()
	for i := 1; i < len(by); i++ {
		if by[i].Wall > by[i-1].Wall {
			t.Fatal("ByOp not sorted")
		}
	}
	var buf bytes.Buffer
	p.Dump(&buf, 5)
	if !bytes.Contains(buf.Bytes(), []byte("hottest")) {
		t.Fatal("Dump output malformed")
	}
	// Profiled output must equal the regular run's output.
	regular := s.Output("prob").Clone()
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(regular, s.Output("prob")); d != 0 {
		t.Fatalf("profiled run changed results by %g", d)
	}
}

func TestRunHonoursContext(t *testing.T) {
	g := smallCNN()
	s, err := New(g, Config{Backends: []backend.Backend{cpu.New(cpu.Config{Threads: 1})}})
	if err != nil {
		t.Fatal(err)
	}
	fillInput(s, "data", 5)
	// nil context behaves like Background.
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	// An already-cancelled context aborts before the first node.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Run(ctx); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run(cancelled) = %v, want context.Canceled", err)
	}
	if _, err := s.RunProfiled(ctx); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunProfiled(cancelled) = %v, want context.Canceled", err)
	}
	// An expired deadline surfaces as DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if err := s.Run(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run(expired) = %v, want DeadlineExceeded", err)
	}
	// The session stays usable after a cancelled run.
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSessionFusesAttention: a prepared transformer session runs each
// block's QK → softmax → AV as one Attention step, smaller in arena than an
// Unfused session and equal to it bit for bit; a NoPreparation session
// re-prepares its already fused graph to the same steps and bits on every
// run.
func TestSessionFusesAttention(t *testing.T) {
	g := models.Transformer()
	run := func(cfg Config) (*Session, *tensor.Tensor) {
		t.Helper()
		cfg.Backends = []backend.Backend{cpu.New(cpu.Config{Threads: 2})}
		s, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		fillInput(s, "tokens", 3)
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s, s.Output("prob").Clone()
	}
	fused, want := run(Config{})
	unfused, got := run(Config{Unfused: true})
	if len(fused.steps) != len(g.Nodes)-4 || len(unfused.steps) != len(g.Nodes) {
		t.Fatalf("%d fused and %d unfused steps of %d nodes", len(fused.steps), len(unfused.steps), len(g.Nodes))
	}
	for _, st := range fused.steps {
		if st.node.Name == "enc0_qk" && st.node.Op != graph.OpAttention {
			t.Fatalf("enc0_qk runs as %v", st.node.Op)
		}
	}
	if f, u := fused.Stats().ArenaFloats["CPU"], unfused.Stats().ArenaFloats["CPU"]; f > u {
		t.Fatalf("fused arena %d floats, unfused %d", f, u)
	}
	if i := firstBitDiff(got.Data(), want.Data()); i >= 0 {
		t.Fatalf("unfused element %d = %v, fused %v", i, got.Data()[i], want.Data()[i])
	}
	lazy, err := New(g, Config{Backends: []backend.Backend{cpu.New(cpu.Config{Threads: 2})}, NoPreparation: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	for i := 0; i < 3; i++ {
		fillInput(lazy, "tokens", 3)
		if err := lazy.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(lazy.steps) != len(fused.steps) {
			t.Fatalf("run %d: %d steps after re-prepare, want %d", i, len(lazy.steps), len(fused.steps))
		}
		if j := firstBitDiff(lazy.Output("prob").Data(), want.Data()); j >= 0 {
			t.Fatalf("run %d: element %d = %v, prepared %v", i, j, lazy.Output("prob").Data()[j], want.Data()[j])
		}
	}
}

// firstBitDiff is the index of the first element whose bits differ, or -1.
func firstBitDiff(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestMedianProfile: each node's median over the runs (the mean of the two
// middle ones for an even count), their sum as the total, and an error for
// profiles of different steps.
func TestMedianProfile(t *testing.T) {
	prof := func(walls ...time.Duration) *Profile {
		p := &Profile{}
		for i, w := range walls {
			p.Entries = append(p.Entries, ProfileEntry{Node: string(rune('a' + i)), Op: graph.OpGELU, Wall: w})
		}
		return p
	}
	m, err := MedianProfile([]*Profile{prof(5, 1), prof(1, 9), prof(3, 2), prof(9, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if m.Entries[0].Wall != 4 || m.Entries[1].Wall != 3 || m.Total != 7 || m.Entries[1].Node != "b" {
		t.Fatalf("medians %+v, total %v; want 4 and 3, total 7", m.Entries, m.Total)
	}
	if _, err := MedianProfile([]*Profile{prof(1, 2), prof(1)}); err == nil {
		t.Fatal("profiles of different steps folded")
	}
	if _, err := MedianProfile(nil); err == nil {
		t.Fatal("no profiles folded")
	}
}
