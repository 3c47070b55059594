package kernels

// Regression tests: after preparation, every conv kernel's Run (and the
// prepared elementwise ops) must be allocation-free when handed its planned
// workspace and the persistent pool — the property the Figure 3 planner
// extension exists to guarantee.

import (
	"fmt"
	"testing"

	"mnn/internal/graph"
	"mnn/internal/tensor"
)

func assertZeroAllocs(t *testing.T, name string, warm func(), run func()) {
	t.Helper()
	warm() // spawn pool workers, fault in lazily-built state
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("%s allocated %.1f objects/op in steady state, want 0", name, allocs)
	}
}

func TestConvKernelsZeroAllocAfterPrepare(t *testing.T) {
	for _, threads := range []int{1, 4} {
		pool := testPool(t, threads)
		lanes := pool.Lanes()

		t.Run(fmt.Sprintf("sliding/t%d", threads), func(t *testing.T) {
			a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
				PadH: 1, PadW: 1, Group: 1, InputCount: 16, OutputCount: 16}
			w := tensor.NewRandom(1, 0.2, 16, 16, 3, 3)
			sc := PrepareSliding(w, nil, a)
			src := tensor.NewWithLayout(tensor.NC4HW4, 1, 16, 24, 24)
			tensor.FillRandom(src, 2, 1)
			dst := tensor.NewWithLayout(tensor.NC4HW4, 1, 16, 24, 24)
			assertZeroAllocs(t, "SlidingConv.Run",
				func() { sc.Run(dst, src, pool) },
				func() { sc.Run(dst, src, pool) })
		})

		t.Run(fmt.Sprintf("depthwise/t%d", threads), func(t *testing.T) {
			a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
				PadH: 1, PadW: 1, Group: 16, InputCount: 16, OutputCount: 16}
			w := tensor.NewRandom(3, 0.2, 16, 1, 3, 3)
			dc := PrepareDepthwise(w, nil, a)
			src := tensor.NewWithLayout(tensor.NC4HW4, 1, 16, 24, 24)
			tensor.FillRandom(src, 4, 1)
			dst := tensor.NewWithLayout(tensor.NC4HW4, 1, 16, 24, 24)
			assertZeroAllocs(t, "DepthwiseConv.Run",
				func() { dc.Run(dst, src, pool) },
				func() { dc.Run(dst, src, pool) })
		})

		t.Run(fmt.Sprintf("conv1x1/t%d", threads), func(t *testing.T) {
			a := &graph.Conv2DAttrs{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1,
				Group: 1, InputCount: 96, OutputCount: 96}
			w := tensor.NewRandom(5, 0.2, 96, 96, 1, 1)
			c := PrepareSliding(w, nil, a)
			src := tensor.NewWithLayout(tensor.NC4HW4, 1, 96, 32, 32)
			tensor.FillRandom(src, 6, 1)
			dst := tensor.NewWithLayout(tensor.NC4HW4, 1, 96, 32, 32)
			assertZeroAllocs(t, "SlidingConv.Run (1×1)",
				func() { c.Run(dst, src, pool) },
				func() { c.Run(dst, src, pool) })
		})

		t.Run(fmt.Sprintf("winograd/t%d", threads), func(t *testing.T) {
			a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
				PadH: 1, PadW: 1, Group: 1, InputCount: 16, OutputCount: 16}
			w := tensor.NewRandom(7, 0.2, 16, 16, 3, 3)
			wc, err := PrepareWinograd(w, nil, a, 4, 4)
			if err != nil {
				t.Fatal(err)
			}
			src := tensor.NewWithLayout(tensor.NC4HW4, 1, 16, 24, 24)
			tensor.FillRandom(src, 8, 1)
			dst := tensor.NewWithLayout(tensor.NC4HW4, 1, 16, 24, 24)
			ws := make([]float32, wc.WorkspaceSize()*lanes)
			assertZeroAllocs(t, "WinogradConv.Run",
				func() { wc.Run(dst, src, pool, ws) },
				func() { wc.Run(dst, src, pool, ws) })
		})

		t.Run(fmt.Sprintf("im2col/t%d", threads), func(t *testing.T) {
			a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
				PadH: 1, PadW: 1, Group: 2, InputCount: 8, OutputCount: 8}
			w := tensor.NewRandom(9, 0.2, 8, 4, 3, 3)
			c := PrepareIm2col(w, nil, a)
			src := tensor.NewRandom(10, 1, 1, 8, 24, 24)
			dst := tensor.New(1, 8, 24, 24)
			ws := make([]float32, c.WorkspaceSize(24, 24))
			assertZeroAllocs(t, "Im2colConv.Run",
				func() { c.Run(dst, src, pool, ws) },
				func() { c.Run(dst, src, pool, ws) })
		})
	}
}

// TestQuantKernelsZeroAllocAfterPrepare: every prepared int8 kernel must be
// allocation-free after Prepare when handed its planned workspace — in both
// scale modes (calibrated and dynamic per-sample) and both quantization
// modes (signed and unsigned).
func TestQuantKernelsZeroAllocAfterPrepare(t *testing.T) {
	for _, threads := range []int{1, 4} {
		pool := testPool(t, threads)
		for _, inputScale := range []float32{0, 0.01} {
			mode := "dynamic"
			if inputScale > 0 {
				mode = "calibrated"
			}

			t.Run(fmt.Sprintf("quantconv/t%d/%s", threads, mode), func(t *testing.T) {
				a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
					PadH: 1, PadW: 1, Group: 1, InputCount: 16, OutputCount: 16, ReLU: true}
				w := tensor.NewRandom(21, 0.2, 16, 16, 3, 3)
				qc := PrepareQuantConv(w, nil, a, inputScale)
				qc.Unsigned = inputScale > 0
				src := tensor.NewWithLayout(tensor.NC4HW4, 1, 16, 24, 24)
				tensor.FillRandom(src, 22, 1)
				dst := tensor.NewWithLayout(tensor.NC4HW4, 1, 16, 24, 24)
				ws := make([]float32, QuantConvWorkspaceFloats(a, 16, 24, 24))
				assertZeroAllocs(t, "QuantConv.Run",
					func() { qc.Run(dst, src, pool, ws) },
					func() { qc.Run(dst, src, pool, ws) })
			})

			t.Run(fmt.Sprintf("quantfc/t%d/%s", threads, mode), func(t *testing.T) {
				ip := PrepareQuantInnerProduct(tensor.NewRandom(25, 0.2, 10, 64), nil,
					&graph.InnerProductAttrs{OutputCount: 10}, inputScale)
				ip.Unsigned = inputScale > 0
				flat := tensor.NewRandom(26, 1, 2, 64)
				out := tensor.New(2, 10)
				ws := make([]float32, QuantInnerProductWorkspaceFloats(2, 64, 10))
				assertZeroAllocs(t, "QuantInnerProduct.Run",
					func() { ip.Run(out, flat, pool, ws) },
					func() { ip.Run(out, flat, pool, ws) })
			})
		}
	}
}

func TestPreparedOpsZeroAlloc(t *testing.T) {
	pool := testPool(t, 4)
	src := tensor.NewWithLayout(tensor.NC4HW4, 1, 16, 16, 16)
	tensor.FillRandom(src, 11, 1)
	dst := tensor.NewWithLayout(tensor.NC4HW4, 1, 16, 16, 16)

	act := NewActivationOp(dst, src, ActReLU)
	assertZeroAllocs(t, "ActivationOp.Run",
		func() { act.Run(pool) }, func() { act.Run(pool) })

	scale := make([]float32, 16)
	for i := range scale {
		scale[i] = 1.5
	}
	sc := NewScaleOp(dst, src, scale, nil)
	assertZeroAllocs(t, "ScaleOp.Run",
		func() { sc.Run(pool) }, func() { sc.Run(pool) })

	for _, pc := range []struct {
		name string
		out  int
		a    graph.PoolAttrs
	}{
		{"max 2x2 s2", 8, graph.PoolAttrs{Type: graph.MaxPool, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}},
		{"max 3x3 s2", 8, graph.PoolAttrs{Type: graph.MaxPool, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2}},
		{"global avg", 1, graph.PoolAttrs{Type: graph.AvgPool, Global: true}},
	} {
		pl := NewPoolOp(tensor.NewWithLayout(tensor.NC4HW4, 1, 16, pc.out, pc.out), src, &pc.a)
		assertZeroAllocs(t, "PoolOp.Run "+pc.name,
			func() { pl.Run(pool) }, func() { pl.Run(pool) })
	}

	elt := NewEltwiseOp(dst, []*tensor.Tensor{src, src}, &graph.EltwiseAttrs{Type: graph.EltSum})
	assertZeroAllocs(t, "EltwiseOp.Run",
		func() { elt.Run(pool) }, func() { elt.Run(pool) })

	ip := PrepareInnerProduct(tensor.NewRandom(12, 0.2, 10, 64), nil,
		&graph.InnerProductAttrs{OutputCount: 10})
	flat := tensor.NewRandom(13, 1, 2, 64)
	out := tensor.New(2, 10)
	assertZeroAllocs(t, "InnerProduct.Run",
		func() { ip.Run(out, flat, pool) }, func() { ip.Run(out, flat, pool) })
}
