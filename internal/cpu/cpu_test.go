package cpu

import (
	"testing"

	"mnn/internal/backend"
	"mnn/internal/core"
	"mnn/internal/device"
	"mnn/internal/graph"
	"mnn/internal/kernels"
	"mnn/internal/simclock"
	"mnn/internal/tensor"
)

func weightsOf(m map[string]*tensor.Tensor) backend.WeightSource {
	return func(name string) *tensor.Tensor { return m[name] }
}

// runNode executes a single node through the backend and returns its output.
func runNode(t *testing.T, b *Backend, n *graph.Node, ins []*tensor.Tensor, out *tensor.Tensor, w map[string]*tensor.Tensor) {
	t.Helper()
	exec, err := b.OnCreate(n, ins, []*tensor.Tensor{out}, weightsOf(w))
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBackendBasics(t *testing.T) {
	b := New(Config{Threads: 4, Device: device.MI6})
	if b.Kind() != backend.KindCPU || b.Name() != "CPU" {
		t.Fatal("identity wrong")
	}
	if b.FLOPS() != 4*2.45e9 {
		t.Fatalf("FLOPS = %g (MI6, 4 threads)", b.FLOPS())
	}
	if b.ScheduleOverheadMs() != 0 {
		t.Fatal("CPU has no schedule overhead")
	}
	if b.PreferredLayout(4) != tensor.NC4HW4 || b.PreferredLayout(2) != tensor.NCHW {
		t.Fatal("preferred layouts wrong")
	}
	if !b.Supports(&graph.Node{Op: graph.OpDeconv2D, Attrs: &graph.Conv2DAttrs{}}) {
		t.Fatal("CPU must support everything")
	}
}

func TestConvSchemesThroughBackend(t *testing.T) {
	// Each configuration routes to a different kernel; all must match the
	// reference.
	cases := []struct {
		name       string
		attrs      graph.Conv2DAttrs
		ic, h, w   int
		wantScheme core.ConvScheme
	}{
		{"winograd", graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Group: 1, InputCount: 16, OutputCount: 16}, 16, 24, 24, core.SchemeWinograd},
		{"strassen1x1", graph.Conv2DAttrs{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, Group: 1, InputCount: 16, OutputCount: 8}, 16, 12, 12, core.SchemeStrassen1x1},
		{"depthwise", graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Group: 16, InputCount: 16, OutputCount: 16}, 16, 12, 12, core.SchemeDepthwise},
		{"im2col-group", graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Group: 4, InputCount: 16, OutputCount: 16}, 16, 12, 12, core.SchemeIm2col},
		{"sliding-s2", graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Group: 1, InputCount: 8, OutputCount: 8}, 8, 13, 13, core.SchemeSliding},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dec := core.SelectConvScheme(&tc.attrs, []int{1, tc.ic, tc.h, tc.w})
			if dec.Scheme != tc.wantScheme {
				t.Fatalf("scheme = %v, want %v", dec.Scheme, tc.wantScheme)
			}
			src := tensor.NewRandom(1, 1, 1, tc.ic, tc.h, tc.w)
			weight := tensor.NewRandom(2, 0.3, tc.attrs.OutputCount, tc.ic/tc.attrs.Group, tc.attrs.KernelH, tc.attrs.KernelW)
			bias := tensor.NewRandom(3, 0.1, tc.attrs.OutputCount)
			oh, ow, err := graph.ConvOutputSize(tc.h, tc.w, &tc.attrs)
			if err != nil {
				t.Fatal(err)
			}
			want := tensor.New(1, tc.attrs.OutputCount, oh, ow)
			kernels.ConvRef(want, src, weight, bias, &tc.attrs)

			b := New(Config{Threads: 2})
			n := &graph.Node{Name: "c", Op: graph.OpConv2D, Inputs: []string{"in"}, Outputs: []string{"out"},
				WeightNames: []string{"w", "b"}, Attrs: &tc.attrs}
			out := tensor.NewWithLayout(tensor.NC4HW4, 1, tc.attrs.OutputCount, oh, ow)
			runNode(t, b, n, []*tensor.Tensor{src.ToLayout(tensor.NC4HW4)}, out,
				map[string]*tensor.Tensor{"w": weight, "b": bias})
			if d := tensor.MaxAbsDiff(want, out); d > 5e-3 {
				t.Fatalf("diff vs reference %g", d)
			}
		})
	}
}

// TestConvRouteOverridesHeuristic: a convolution runs the scheme its route
// in Config.Convs names — here sliding window (a Table 1 fixed-scheme
// baseline) on a convolution the heuristic runs as Winograd.
func TestConvRouteOverridesHeuristic(t *testing.T) {
	attrs := graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
		Group: 1, InputCount: 16, OutputCount: 16}
	in := []int{1, 16, 24, 24}
	dec := core.SelectConvScheme(&attrs, in)
	if dec.Scheme != core.SchemeWinograd {
		t.Fatalf("heuristic picks %v, the test needs winograd", dec.Scheme)
	}
	var ran string
	b := New(Config{
		Threads: 1,
		Clock:   simclock.New(),
		Convs: core.ConvRoutes{"c": {ConvDecision: core.ConvDecision{
			Scheme: core.SchemeSliding, EffMULs: dec.DirectMULs, DirectMULs: dec.DirectMULs}}},
		Efficiency: func(n *graph.Node, scheme string) float64 { ran = scheme; return 1 },
	})
	src := tensor.NewRandom(4, 1, in...)
	weight := tensor.NewRandom(5, 0.3, 16, 16, 3, 3)
	want := tensor.New(in...)
	kernels.ConvRef(want, src, weight, nil, &attrs)

	n := &graph.Node{Name: "c", Op: graph.OpConv2D, Inputs: []string{"in"}, Outputs: []string{"out"},
		WeightNames: []string{"w"}, Attrs: &attrs}
	out := tensor.NewWithLayout(tensor.NC4HW4, in...)
	runNode(t, b, n, []*tensor.Tensor{src.ToLayout(tensor.NC4HW4)}, out,
		map[string]*tensor.Tensor{"w": weight})
	if ran != "sliding" {
		t.Fatalf("ran %q, the route names sliding", ran)
	}
	if d := tensor.MaxAbsDiff(want, out); d > 1e-3 {
		t.Fatalf("routed sliding wrong by %g", d)
	}
}

func TestEfficiencyModelScalesClock(t *testing.T) {
	run := func(eff float64) float64 {
		clock := simclock.New()
		b := New(Config{Threads: 1, Device: device.MI6, Clock: clock,
			Efficiency: func(n *graph.Node, scheme string) float64 { return eff }})
		attrs := graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
			Group: 1, InputCount: 8, OutputCount: 8}
		src := tensor.NewWithLayout(tensor.NC4HW4, 1, 8, 16, 16)
		weight := tensor.NewRandom(6, 0.3, 8, 8, 3, 3)
		n := &graph.Node{Name: "c", Op: graph.OpConv2D, Inputs: []string{"in"}, Outputs: []string{"out"},
			WeightNames: []string{"w"}, Attrs: &attrs}
		out := tensor.NewWithLayout(tensor.NC4HW4, 1, 8, 16, 16)
		exec, err := b.OnCreate(n, []*tensor.Tensor{src}, []*tensor.Tensor{out}, weightsOf(map[string]*tensor.Tensor{"w": weight}))
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.Run(); err != nil {
			t.Fatal(err)
		}
		return clock.TotalMs()
	}
	full := run(1.0)
	half := run(0.5)
	if full <= 0 {
		t.Fatal("clock must advance")
	}
	ratio := half / full
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("efficiency 0.5 should double cost, got ratio %v", ratio)
	}
}

func TestBatchNormFoldedAtCreate(t *testing.T) {
	b := New(Config{Threads: 1})
	c := 6
	gamma := tensor.NewRandom(7, 0.1, c)
	for i := range gamma.Data() {
		gamma.Data()[i] += 1
	}
	beta := tensor.NewRandom(8, 0.1, c)
	mean := tensor.NewRandom(9, 0.1, c)
	variance := tensor.FromData([]float32{1, 1, 1, 1, 1, 1}, c)
	src := tensor.NewRandom(10, 1, 1, c, 5, 5)
	want := tensor.New(1, c, 5, 5)
	kernels.BatchNormRef(want, src, gamma, beta, mean, variance, 1e-5)

	n := &graph.Node{Name: "bn", Op: graph.OpBatchNorm, Inputs: []string{"in"}, Outputs: []string{"out"},
		WeightNames: []string{"g", "b", "m", "v"}, Attrs: &graph.BatchNormAttrs{Eps: 1e-5}}
	out := tensor.NewWithLayout(tensor.NC4HW4, 1, c, 5, 5)
	runNode(t, b, n, []*tensor.Tensor{src.ToLayout(tensor.NC4HW4)}, out,
		map[string]*tensor.Tensor{"g": gamma, "b": beta, "m": mean, "v": variance})
	if d := tensor.MaxAbsDiff(want, out); d > 1e-4 {
		t.Fatalf("BN diff %g", d)
	}
}

func TestBatchNormRejectsWrongWeights(t *testing.T) {
	b := New(Config{Threads: 1})
	n := &graph.Node{Name: "bn", Op: graph.OpBatchNorm, Inputs: []string{"in"}, Outputs: []string{"out"},
		WeightNames: []string{"g"}, Attrs: &graph.BatchNormAttrs{Eps: 1e-5}}
	if _, err := b.OnCreate(n, nil, []*tensor.Tensor{tensor.New(1, 4, 2, 2)}, weightsOf(nil)); err == nil {
		t.Fatal("expected weight-count error")
	}
}

func TestConcatGenericAxisThroughBackend(t *testing.T) {
	b := New(Config{Threads: 1})
	a0 := tensor.NewRandom(11, 1, 1, 4, 2, 3).ToLayout(tensor.NC4HW4)
	a1 := tensor.NewRandom(12, 1, 1, 4, 5, 3).ToLayout(tensor.NC4HW4)
	out := tensor.NewWithLayout(tensor.NC4HW4, 1, 4, 7, 3)
	n := &graph.Node{Name: "cat", Op: graph.OpConcat, Inputs: []string{"a", "b"}, Outputs: []string{"o"},
		Attrs: &graph.ConcatAttrs{Axis: 2}}
	runNode(t, b, n, []*tensor.Tensor{a0, a1}, out, nil)
	if out.At(0, 1, 0, 0) != a0.At(0, 1, 0, 0) {
		t.Fatal("first part corrupted")
	}
	if out.At(0, 3, 2, 1) != a1.At(0, 3, 0, 1) {
		t.Fatal("second part corrupted")
	}
}

func TestDeconvThroughBackend(t *testing.T) {
	b := New(Config{Threads: 1})
	attrs := graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1,
		Group: 1, InputCount: 4, OutputCount: 3}
	src := tensor.NewRandom(13, 1, 1, 4, 6, 6)
	weight := tensor.NewRandom(14, 0.3, 4, 3, 3, 3) // [ic, oc, kh, kw]
	want := tensor.New(1, 3, 11, 11)
	kernels.DeconvRef(want, src, weight, nil, &attrs)
	n := &graph.Node{Name: "d", Op: graph.OpDeconv2D, Inputs: []string{"in"}, Outputs: []string{"out"},
		WeightNames: []string{"w"}, Attrs: &attrs}
	out := tensor.NewWithLayout(tensor.NC4HW4, 1, 3, 11, 11)
	runNode(t, b, n, []*tensor.Tensor{src.ToLayout(tensor.NC4HW4)}, out,
		map[string]*tensor.Tensor{"w": weight})
	if d := tensor.MaxAbsDiff(want, out); d > 1e-3 {
		t.Fatalf("deconv diff %g", d)
	}
}

func TestOnCopyBufferShapeMismatch(t *testing.T) {
	b := New(Config{Threads: 1})
	if err := b.OnCopyBuffer(tensor.New(2, 2), tensor.New(3, 3)); err == nil {
		t.Fatal("expected shape error")
	}
}
