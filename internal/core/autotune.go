package core

import (
	"time"

	"mnn/internal/matmul"
	"mnn/internal/tensor"
)

// The paper's future work item (1): "applying auto-tuning during backend
// evaluation". Appendix C estimates CPU capability from core frequencies and
// GPU capability from a static table; this file replaces the static numbers
// with a measured one, by running the engine's own compute-intensive unit
// (the basic matrix multiplication of Section 3.5) and timing it.

// CalibrationResult is a measured capability estimate.
type CalibrationResult struct {
	// FLOPS is the measured multiply-accumulate throughput (2 flops per
	// MAC are NOT double-counted: this is MACs/second, matching how the
	// Equation 5 MUL term is counted).
	FLOPS float64
	// Size is the GEMM dimension used.
	Size int
	// Elapsed is the wall time of the best repetition.
	Elapsed time.Duration
}

// MeasureHostFLOPS benchmarks the engine's GEMM — a pre-packed
// matmul.PackedB multiply, the kernel every fp32 conv, FC and MatMul runs
// on — at the given size and returns the achieved MAC throughput. Sessions
// can feed this into the cost model instead of the Appendix C frequency
// heuristic, which is what the paper's planned auto-tuned backend
// evaluation does.
func MeasureHostFLOPS(size, reps int) CalibrationResult {
	if size <= 0 {
		size = 256
	}
	if reps <= 0 {
		reps = 3
	}
	a := tensor.NewRandom(1, 1, size, size).Data()
	b := matmul.PackB(tensor.NewRandom(2, 1, size, size).Data(), size, size)
	dst := make([]float32, size*size)
	b.MulInto(dst, a, size) // warm up
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		b.MulInto(dst, a, size)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	macs := float64(size) * float64(size) * float64(size)
	return CalibrationResult{
		FLOPS:   macs / best.Seconds(),
		Size:    size,
		Elapsed: best,
	}
}
