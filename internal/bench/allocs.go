package bench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mnn"
	"mnn/internal/graph"
	"mnn/internal/kernels"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// Allocs measures steady-state heap allocations per operation — the
// observable half of the preparation–execution decoupling: after
// pre-inference has planned activations AND kernel workspaces into the
// arena and the persistent worker pool is up, Engine.InferInto and every
// prepared conv kernel must report 0 allocs/op. The experiment also records
// the InferInto latency so the perf trajectory carries the throughput
// headline alongside the allocation counts.
func Allocs(opt Options) error {
	reps := 5
	if opt.Quick {
		reps = 2
	}
	opt.printf("Allocs — steady-state heap allocations per operation (want 0 everywhere)\n")
	opt.printf("%-36s %12s %14s\n", "case", "allocs/op", "ms/op")

	row := func(kase string, allocs float64, d time.Duration) {
		opt.printf("%-36s %12.1f %14.3f\n", kase, allocs, ms(d))
		if opt.Recorder != nil {
			opt.Recorder.RecordAllocs("allocs", kase, allocs, float64(d.Nanoseconds()))
		}
	}

	// --- Engine.InferInto on mobilenet-v1, the throughput headline — at
	// both precisions: the int8 path plans its panels and accumulators into
	// the same arena, so its steady state must be equally allocation-free.
	for _, threads := range []int{1, 4} {
		for _, precision := range []mnn.Precision{mnn.PrecisionFP32, mnn.PrecisionInt8} {
			eng, err := mnn.Open("mobilenet-v1", mnn.WithThreads(threads), mnn.WithPrecision(precision))
			if err != nil {
				return err
			}
			in := tensor.New(1, 3, 224, 224)
			tensor.FillRandom(in, 1, 1)
			inputs := map[string]*mnn.Tensor{"data": in}
			ctx := context.Background()
			outputs, err := eng.Infer(ctx, inputs)
			if err != nil {
				eng.Close()
				return err
			}
			if err := eng.InferInto(ctx, inputs, outputs); err != nil { // warm
				eng.Close()
				return err
			}
			allocs := testing.AllocsPerRun(reps, func() {
				if err := eng.InferInto(ctx, inputs, outputs); err != nil {
					panic(err)
				}
			})
			d := medianOf(reps, func() {
				if err := eng.InferInto(ctx, inputs, outputs); err != nil {
					panic(err)
				}
			})
			// The fp32 case keeps its PR-3 name so the perf trajectory stays
			// comparable across BENCH_pr*.json files.
			kase := fmt.Sprintf("mobilenet-v1/InferInto/t%d", threads)
			if precision == mnn.PrecisionInt8 {
				kase = fmt.Sprintf("mobilenet-v1/InferInto-int8/t%d", threads)
			}
			row(kase, allocs, d)
			eng.Close()
		}
	}

	// --- Prepared conv kernels with planner-style workspaces.
	pool := sched.New(4)
	defer pool.Close()
	lanes := pool.Lanes()

	kernelCase := func(kase string, warm func(), run func()) {
		warm()
		allocs := testing.AllocsPerRun(reps, run)
		row(kase, allocs, medianOf(reps, run))
	}

	{
		a := &graph.Conv2DAttrs{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1,
			Group: 1, InputCount: 128, OutputCount: 128}
		w := tensor.NewRandom(2, 0.2, 128, 128, 1, 1)
		c := kernels.PrepareConv1x1(w, nil, a)
		src := tensor.NewWithLayout(tensor.NC4HW4, 1, 128, 28, 28)
		tensor.FillRandom(src, 3, 1)
		dst := tensor.NewWithLayout(tensor.NC4HW4, 1, 128, 28, 28)
		kernelCase("conv1x1-strassen/Run", func() { c.Run(dst, src, pool) },
			func() { c.Run(dst, src, pool) })
	}
	{
		a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
			PadH: 1, PadW: 1, Group: 1, InputCount: 32, OutputCount: 32}
		w := tensor.NewRandom(4, 0.2, 32, 32, 3, 3)
		wc, err := kernels.PrepareWinograd(w, nil, a, 4, 4)
		if err != nil {
			return err
		}
		src := tensor.NewWithLayout(tensor.NC4HW4, 1, 32, 56, 56)
		tensor.FillRandom(src, 5, 1)
		dst := tensor.NewWithLayout(tensor.NC4HW4, 1, 32, 56, 56)
		ws := make([]float32, wc.WorkspaceSize()*lanes)
		kernelCase("conv-winograd-F4/Run", func() { wc.Run(dst, src, pool, ws) },
			func() { wc.Run(dst, src, pool, ws) })
	}
	{
		a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
			PadH: 1, PadW: 1, Group: 64, InputCount: 64, OutputCount: 64}
		w := tensor.NewRandom(6, 0.2, 64, 1, 3, 3)
		dc := kernels.PrepareDepthwise(w, nil, a)
		src := tensor.NewWithLayout(tensor.NC4HW4, 1, 64, 56, 56)
		tensor.FillRandom(src, 7, 1)
		dst := tensor.NewWithLayout(tensor.NC4HW4, 1, 64, 56, 56)
		kernelCase("conv-depthwise/Run", func() { dc.Run(dst, src, pool) },
			func() { dc.Run(dst, src, pool) })
	}
	{
		a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
			PadH: 1, PadW: 1, Group: 1, InputCount: 32, OutputCount: 32}
		w := tensor.NewRandom(8, 0.2, 32, 32, 3, 3)
		sc := kernels.PrepareSliding(w, nil, a)
		src := tensor.NewWithLayout(tensor.NC4HW4, 1, 32, 28, 28)
		tensor.FillRandom(src, 9, 1)
		dst := tensor.NewWithLayout(tensor.NC4HW4, 1, 32, 28, 28)
		kernelCase("conv-sliding/Run", func() { sc.Run(dst, src, pool) },
			func() { sc.Run(dst, src, pool) })
	}
	{
		a := &graph.Conv2DAttrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
			PadH: 1, PadW: 1, Group: 2, InputCount: 16, OutputCount: 16}
		w := tensor.NewRandom(10, 0.2, 16, 8, 3, 3)
		c := kernels.PrepareIm2col(w, nil, a)
		src := tensor.NewRandom(11, 1, 1, 16, 28, 28)
		dst := tensor.New(1, 16, 28, 28)
		ws := make([]float32, c.WorkspaceSize(28, 28))
		kernelCase("conv-im2col/Run", func() { c.Run(dst, src, pool, ws) },
			func() { c.Run(dst, src, pool, ws) })
	}

	opt.printf("\n")
	return nil
}
