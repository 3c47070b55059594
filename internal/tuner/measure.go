package tuner

import (
	"fmt"
	"time"

	"mnn/internal/backend"
	"mnn/internal/core"
	"mnn/internal/cpu"
	"mnn/internal/graph"
	"mnn/internal/sched"
	"mnn/internal/session"
	"mnn/internal/tensor"
)

// measureBest times each ranked candidate on the real shape and returns the
// fastest, its steady-state ns/op, and how many candidates were actually
// measured. Config.Reps is deliberately small: preparation time is
// user-visible (mnn.Open latency) and the cache amortizes it to zero on
// later opens. A single-candidate list commits without timing anything. A
// candidate whose preparation fails is disqualified rather than fatal — the
// search degrades to the remaining candidates.
func measureBest(a *graph.Conv2DAttrs, inShape []int, ranked []core.ConvCandidate, pool *sched.Pool, reps int, int8Mode bool) (core.ConvDecision, float64, int, error) {
	if len(ranked) == 1 {
		return ranked[0].Decision, 0, 0, nil
	}
	bestIdx := -1
	bestNs := 0.0
	measured := 0
	var lastErr error
	for i, cand := range ranked {
		ns, err := measureCandidate(a, inShape, cand.Decision, pool, reps, int8Mode)
		if err != nil {
			lastErr = err
			continue
		}
		measured++
		if bestIdx < 0 || ns < bestNs {
			bestIdx, bestNs = i, ns
		}
	}
	if bestIdx < 0 {
		return core.ConvDecision{}, 0, measured, fmt.Errorf("every candidate failed to prepare: %w", lastErr)
	}
	return ranked[bestIdx].Decision, bestNs, measured, nil
}

// measureCandidate prepares a one-node convolution through the same
// pre-inference pipeline the engine runs (NC4HW4 activations, planned
// workspaces, the persistent worker pool) with the candidate algorithm
// forced, and times steady-state runs. Timing the real session — not a bare
// kernel loop — makes the measurement include exactly the staging copies and
// layout conversions the algorithm would pay inside a full network. In int8
// mode the backend runs the quantized path, so GEMM-lowered candidates time
// the int8 kernels that would actually execute (per-sample dynamic scales,
// the uncalibrated worst case) while Winograd/sliding time their fp32
// fallbacks — the same split the int8 planner will commit.
func measureCandidate(a *graph.Conv2DAttrs, inShape []int, dec core.ConvDecision, pool *sched.Pool, reps int, int8Mode bool) (float64, error) {
	g := graph.New("tuner-probe")
	g.AddNode(&graph.Node{Name: "in", Op: graph.OpInput, Outputs: []string{"in"},
		Attrs: &graph.InputAttrs{Shape: append([]int(nil), inShape...)}})
	group := a.Group
	if group <= 0 {
		group = 1
	}
	ic := a.InputCount
	if ic == 0 && len(inShape) == 4 {
		ic = inShape[1]
	}
	w := tensor.New(a.OutputCount, ic/group, a.KernelH, a.KernelW)
	tensor.FillRandom(w, 11, 1)
	g.AddWeight("w", w)
	b := tensor.New(a.OutputCount)
	tensor.FillRandom(b, 13, 0.1)
	g.AddWeight("b", b)
	attrs := *a
	g.AddNode(&graph.Node{Name: "conv", Op: graph.OpConv2D,
		Inputs: []string{"in"}, Outputs: []string{"conv"},
		WeightNames: []string{"w", "b"}, Attrs: &attrs})
	g.OutputNames = []string{"conv"}

	bk := cpu.New(cpu.Config{
		Threads: pool.Lanes(),
		Pool:    pool,
		Int8:    int8Mode,
		ForceScheme: func(n *graph.Node, _ core.ConvDecision) core.ConvDecision {
			return dec
		},
	})
	// The session is dropped, not Closed: Close would tear down the shared
	// tuning pool, and a dropped session holds no goroutines of its own.
	s, err := session.New(g, session.Config{Backends: []backend.Backend{bk}})
	if err != nil {
		return 0, err
	}
	tensor.FillRandom(s.Input("in"), 17, 1)
	if err := s.Run(nil); err != nil {
		return 0, err
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := s.Run(nil); err != nil {
			return 0, err
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()), nil
}
