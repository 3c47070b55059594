package quant

// Kernel-level conformance between the three int8 implementations: the
// self-contained QuantizedConv reference in this package, the pooled
// runtime kernels in internal/kernels, and the naive fp32 reference. Plus
// the calibration pass's contract: deterministic, complete, positive.

import (
	"testing"

	"mnn/internal/graph"
	"mnn/internal/kernels"
	"mnn/internal/matmul"
	"mnn/internal/models"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// TestMulInt8AgreesWithPackedGemm: the offline MulInt8 GEMM, the reference
// matmul.MulInt8Ref and the packed kernel must agree bitwise (integer
// accumulation is exact) on shapes covering the tiny-K fallback and both
// panel-remainder paths.
func TestMulInt8AgreesWithPackedGemm(t *testing.T) {
	r := tensor.NewRNG(3)
	for _, tc := range []struct{ m, k, n int }{
		{1, 4, 4}, {3, 16, 16}, {5, 33, 20}, {8, 64, 48}, {7, 100, 31},
	} {
		a := make([]int8, tc.m*tc.k)
		b := make([]int8, tc.k*tc.n)
		for i := range a {
			a[i] = int8(r.Intn(255) - 127)
		}
		for i := range b {
			b[i] = int8(r.Intn(255) - 127)
		}
		want := make([]int32, tc.m*tc.n)
		MulInt8(want, a, b, tc.m, tc.k, tc.n)
		ref := make([]int32, tc.m*tc.n)
		matmul.MulInt8Ref(ref, a, b, tc.m, tc.k, tc.n)
		packed := make([]int32, tc.m*tc.n)
		matmul.PackBInt8(b, tc.k, tc.n).MulInto(packed, a, tc.m, make([]int32, tc.m))
		for i := range want {
			if ref[i] != want[i] || packed[i] != want[i] {
				t.Fatalf("%dx%dx%d element %d: MulInt8=%d ref=%d packed=%d",
					tc.m, tc.k, tc.n, i, want[i], ref[i], packed[i])
			}
		}
	}
}

// TestQuantizedConvPathsAgree: the offline QuantizedConv (per-tensor scales)
// and the runtime kernels.QuantConv (per-channel scales) must both land
// within the quantization noise floor of the fp32 reference.
func TestQuantizedConvPathsAgree(t *testing.T) {
	a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
		PadH: 1, PadW: 1, Group: 1, InputCount: 8, OutputCount: 12}
	src := tensor.NewRandom(31, 1, 1, 8, 10, 10)
	weight := tensor.NewRandom(32, 0.3, 12, 8, 3, 3)
	bias := tensor.NewRandom(33, 0.1, 12)
	want := tensor.New(1, 12, 10, 10)
	kernels.ConvRef(want, src, weight, bias, a)
	var norm float64
	for _, v := range want.Data() {
		if x := float64(v); x > norm {
			norm = x
		}
	}
	if norm < 0.5 {
		t.Fatal("test signal too weak to be meaningful")
	}
	budget := 0.05 * norm

	offline, err := PrepareQuantizedConv(weight, bias, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	gotOffline := tensor.New(1, 12, 10, 10)
	offline.Run(gotOffline, src)
	if d := tensor.MaxAbsDiff(want, gotOffline); d > budget {
		t.Fatalf("offline QuantizedConv error %g > %g", d, budget)
	}

	pool := sched.New(2)
	defer pool.Close()
	runtime := kernels.PrepareQuantConv(weight, bias, a, 0)
	gotRuntime := tensor.NewWithLayout(tensor.NC4HW4, 1, 12, 10, 10)
	ws := make([]float32, kernels.QuantConvWorkspaceFloats(a, 8, 10, 10))
	runtime.Run(gotRuntime, src.ToLayout(tensor.NC4HW4), pool, ws)
	if d := tensor.MaxAbsDiff(want, gotRuntime); d > budget {
		t.Fatalf("runtime QuantConv error %g > %g", d, budget)
	}
	// Per-channel runtime quantization must not be worse than the per-tensor
	// offline tool by more than noise.
	if dr, do := tensor.MaxAbsDiff(want, gotRuntime), tensor.MaxAbsDiff(want, gotOffline); dr > 2*do+1e-3 {
		t.Fatalf("per-channel runtime error %g worse than per-tensor offline %g", dr, do)
	}
}

// TestCalibrateContract: calibration is deterministic, covers every
// activation the graph produces, and never emits a non-positive scale.
func TestCalibrateContract(t *testing.T) {
	build := func() (*graph.Graph, map[string]*tensor.Tensor) {
		g := models.SqueezeNetV11()
		return g, map[string]*tensor.Tensor{"data": tensor.NewRandom(5, 1, 1, 3, 64, 64)}
	}
	g1, s1 := build()
	scales1, err := Calibrate(g1, []map[string]*tensor.Tensor{s1})
	if err != nil {
		t.Fatal(err)
	}
	g2, s2 := build()
	scales2, err := Calibrate(g2, []map[string]*tensor.Tensor{s2})
	if err != nil {
		t.Fatal(err)
	}
	if len(scales1) != len(scales2) {
		t.Fatalf("calibration nondeterministic: %d vs %d scales", len(scales1), len(scales2))
	}
	for name, v := range scales1 {
		if scales2[name] != v {
			t.Fatalf("calibration nondeterministic at %q: %v vs %v", name, v, scales2[name])
		}
		if v <= 0 {
			t.Fatalf("non-positive scale %v for %q", v, name)
		}
	}
	for _, n := range g1.Nodes {
		for _, o := range n.Outputs {
			if _, ok := scales1[o]; !ok {
				t.Fatalf("activation %q has no calibrated scale", o)
			}
		}
	}
	if g1.ActScales == nil {
		t.Fatal("Calibrate must store scales into the graph")
	}

	if _, err := Calibrate(g1, nil); err == nil {
		t.Fatal("Calibrate with no samples must error")
	}
	if _, err := Calibrate(g1, []map[string]*tensor.Tensor{
		{"bogus": tensor.New(1, 3, 64, 64)}}); err == nil {
		t.Fatal("Calibrate with unknown input must error")
	}
}

// TestCalibrateSyntheticUsesDeclaredShapes pins the mnnconvert -calibrate
// path on a model small enough to run its declared 224 shape quickly.
func TestCalibrateSyntheticUsesDeclaredShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution calibration in -short mode")
	}
	g := models.SqueezeNetV11()
	scales, err := CalibrateSynthetic(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(scales) == 0 || g.ActScales == nil {
		t.Fatal("synthetic calibration produced no scales")
	}
}
