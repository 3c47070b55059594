package gpusim

import (
	"testing"

	"mnn/internal/backend"
	"mnn/internal/device"
	"mnn/internal/graph"
	"mnn/internal/simclock"
	"mnn/internal/tensor"
)

func convNode() (*graph.Node, []*tensor.Tensor, []*tensor.Tensor, backend.WeightSource) {
	n := &graph.Node{Name: "conv", Op: graph.OpConv2D,
		Inputs: []string{"in"}, Outputs: []string{"out"},
		WeightNames: []string{"w", "b"},
		Attrs: &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
			PadH: 1, PadW: 1, Group: 1, InputCount: 8, OutputCount: 8}}
	in := tensor.NewWithLayout(tensor.NC4HW4, 1, 8, 8, 8)
	tensor.FillRandom(in, 1, 1)
	out := tensor.NewWithLayout(tensor.NC4HW4, 1, 8, 8, 8)
	w := tensor.NewRandom(2, 0.2, 8, 8, 3, 3)
	b := tensor.NewRandom(3, 0.1, 8)
	weights := func(name string) *tensor.Tensor {
		if name == "w" {
			return w
		}
		return b
	}
	return n, []*tensor.Tensor{in}, []*tensor.Tensor{out}, weights
}

func TestGPUSimComputesCorrectly(t *testing.T) {
	n, ins, outs, weights := convNode()
	clock := simclock.New()
	b, err := New(Config{Kind: backend.KindVulkan, Device: device.MI6, Clock: clock,
		DecoupledEncode: true, ComputeThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := b.OnCreate(n, ins, outs, weights)
	if err != nil {
		t.Fatal(err)
	}
	b.OnExecuteBegin()
	if err := exec.Run(); err != nil {
		t.Fatal(err)
	}
	b.OnExecuteEnd()
	// Results must match the unclocked CPU path bit-for-bit (same kernels).
	var sum float64
	for _, v := range outs[0].Data() {
		sum += float64(v)
	}
	if sum == 0 {
		t.Fatal("no output computed")
	}
	if clock.TotalMs() <= 0 {
		t.Fatal("clock did not advance")
	}
}

func TestDecoupledEncodeMovesCostOutOfRun(t *testing.T) {
	run := func(decoupled bool) float64 {
		n, ins, outs, weights := convNode()
		clock := simclock.New()
		b, err := New(Config{Kind: backend.KindVulkan, Device: device.MI6, Clock: clock,
			DecoupledEncode: decoupled, ComputeThreads: 1})
		if err != nil {
			t.Fatal(err)
		}
		exec, err := b.OnCreate(n, ins, outs, weights)
		if err != nil {
			t.Fatal(err)
		}
		clock.Reset() // measure inference only
		b.OnExecuteBegin()
		if err := exec.Run(); err != nil {
			t.Fatal(err)
		}
		b.OnExecuteEnd()
		return clock.TotalMs()
	}
	with := run(true)
	without := run(false)
	if without <= with {
		t.Fatalf("per-run encoding (%.3f ms) must cost more than decoupled (%.3f ms)", without, with)
	}
	if diff := without - with; diff < EncodeCostMs[backend.KindVulkan]*0.9 {
		t.Errorf("encode cost not visible: diff %.3f", diff)
	}
}

func TestPipelineEncodedOnceWhenDecoupled(t *testing.T) {
	for _, decoupled := range []bool{true, false} {
		n, ins, outs, weights := convNode()
		clock := simclock.New()
		b, _ := New(Config{Kind: backend.KindVulkan, Device: device.MI6, Clock: clock,
			DecoupledEncode: decoupled, ComputeThreads: 1})
		exec, err := b.OnCreate(n, ins, outs, weights)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := exec.Run(); err != nil {
				t.Fatal(err)
			}
		}
		// Decoupled, the one encode happened at create, off the clock;
		// otherwise every run encodes again.
		want := 3 * EncodeCostMs[backend.KindVulkan]
		if decoupled {
			want = 0
		}
		if got := clock.ByLabel()["encode"]; got != want {
			t.Fatalf("decoupled=%v: three runs charged %g ms of encoding, want %g", decoupled, got, want)
		}
	}
}

func TestOpCoverageShapedLikeTable4(t *testing.T) {
	metal := len(DefaultSupported(backend.KindMetal))
	vulkan := len(DefaultSupported(backend.KindVulkan))
	opencl := len(DefaultSupported(backend.KindOpenCL))
	opengl := len(DefaultSupported(backend.KindOpenGL))
	// Table 4 ordering: Metal 55 > Vulkan 35 > OpenCL 33 > OpenGL 15.
	if !(metal > vulkan && vulkan > opencl && opencl > opengl) {
		t.Fatalf("coverage ordering wrong: metal=%d vulkan=%d opencl=%d opengl=%d",
			metal, vulkan, opencl, opengl)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Kind: backend.KindCPU, Device: device.MI6}); err == nil {
		t.Error("CPU kind must be rejected")
	}
	if _, err := New(Config{Kind: backend.KindVulkan}); err == nil {
		t.Error("missing device must be rejected")
	}
}

func TestUnsupportedOpRejected(t *testing.T) {
	b, _ := New(Config{Kind: backend.KindOpenGL, Device: device.MI6, ComputeThreads: 1})
	n := &graph.Node{Name: "fc", Op: graph.OpInnerProduct,
		Inputs: []string{"in"}, Outputs: []string{"out"},
		Attrs: &graph.InnerProductAttrs{OutputCount: 4}}
	if b.Supports(n) {
		t.Fatal("OpenGL must not support InnerProduct")
	}
	if _, err := b.OnCreate(n, nil, nil, nil); err == nil {
		t.Fatal("OnCreate must reject unsupported op")
	}
}

func TestTransferChargesClock(t *testing.T) {
	clock := simclock.New()
	b, _ := New(Config{Kind: backend.KindOpenCL, Device: device.MI6, Clock: clock, ComputeThreads: 1})
	src := tensor.NewRandom(5, 1, 1, 16, 32, 32)
	dst := tensor.New(1, 16, 32, 32)
	if err := b.OnCopyBuffer(src, dst); err != nil {
		t.Fatal(err)
	}
	if clock.TotalMs() <= 0 {
		t.Fatal("transfer must cost simulated time")
	}
	if tensor.MaxAbsDiff(src, dst) != 0 {
		t.Fatal("transfer corrupted data")
	}
}

func TestFLOPSFromAppendix(t *testing.T) {
	b, _ := New(Config{Kind: backend.KindVulkan, Device: device.MI6, ComputeThreads: 1})
	if b.FLOPS() != 42.74e9 {
		t.Fatalf("MI6 GPU FLOPS = %g", b.FLOPS())
	}
	if b.ScheduleOverheadMs() != 0.01 {
		t.Fatalf("Vulkan t_schedule = %v", b.ScheduleOverheadMs())
	}
}
