// Package cpu implements the CPU backend: NC4HW4 activations, multi-threaded
// kernels, and pre-inference scheme selection (Section 3.2 of the paper) so
// that every convolution runs the cost-optimal algorithm among sliding
// window, generated Winograd, matmul (1×1) and the depthwise and
// im2col paths.
package cpu

import (
	"fmt"

	"mnn/internal/backend"
	"mnn/internal/core"
	"mnn/internal/device"
	"mnn/internal/graph"
	"mnn/internal/sched"
	"mnn/internal/simclock"
	"mnn/internal/tensor"
)

// EfficiencyModel scales the simulated cost of an operator; 1.0 is the
// paper's fully-optimized kernel. Baseline engine simulators supply models
// with blind spots (e.g. NCNN's unoptimized 1×7 convolution in Figure 8).
type EfficiencyModel func(n *graph.Node, scheme string) float64

// Config parameterizes a CPU backend instance.
type Config struct {
	// Threads is the worker count (the paper benchmarks 1, 2 and 4).
	Threads int
	// Device supplies the Equation 5 FLOPS term. Nil means device.Host.
	Device *device.Profile
	// Clock accumulates simulated time; nil disables simulation.
	Clock *simclock.Clock
	// Efficiency adjusts simulated cost per op; nil means always 1.0.
	Efficiency EfficiencyModel
	// ForceScheme overrides pre-inference scheme selection; nil keeps the
	// cost-model choice. Used by fixed-scheme baselines (Table 1) and
	// ablations.
	ForceScheme func(n *graph.Node, dec core.ConvDecision) core.ConvDecision
	// Pool is the persistent worker pool kernels dispatch onto. Nil makes
	// the backend create (and own) one sized to Threads; either way Close
	// releases it.
	Pool *sched.Pool
	// Int8 enables the quantized execution path: eligible convolutions
	// (core.Int8ConvSupported) and fully-connected layers run the prepared
	// int8 kernels; everything else falls back to fp32 transparently.
	Int8 bool
	// QuantPlan optionally restricts which nodes run int8 (the
	// optimizer.PlanInt8 partition, keyed by node name); nil quantizes every
	// eligible node.
	QuantPlan map[string]bool
	// ActScales maps activation tensor name → calibrated scale
	// (quant.Calibrate). Int8 kernels whose input has no entry derive a
	// per-sample max-abs scale at run time instead.
	ActScales map[string]float32
	// NonNegActs marks activation tensors proven non-negative by the int8
	// planner's dataflow pass; int8 kernels consuming them quantize unsigned
	// (0..254 at the same step: twice the headroom above the scale).
	NonNegActs map[string]bool
	// Prepared, when set, holds the kernels' prepared weights, each built on
	// first use and shared by every backend of the engine; nil: build afresh.
	Prepared *Prepared
}

// Backend is the CPU implementation of the Figure 5 interface.
type Backend struct {
	*backend.BufferTracker
	cfg  Config
	pool *sched.Pool
}

// New creates a CPU backend.
func New(cfg Config) *Backend {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Device == nil {
		cfg.Device = device.Host
	}
	pool := cfg.Pool
	if pool == nil {
		pool = sched.New(cfg.Threads)
	}
	return &Backend{BufferTracker: backend.NewBufferTracker(), cfg: cfg, pool: pool}
}

// Close releases the worker pool. Safe to call more than once; the backend
// keeps working afterwards with inline (single-lane) execution.
func (b *Backend) Close() error {
	b.pool.Close()
	return nil
}

// Pool exposes the worker pool kernels dispatch onto.
func (b *Backend) Pool() *sched.Pool { return b.pool }

// Kind implements backend.Backend.
func (b *Backend) Kind() backend.Kind { return backend.KindCPU }

// Name implements backend.Backend.
func (b *Backend) Name() string { return "CPU" }

// FLOPS implements Equation 5 / Appendix C: sum of the k largest core
// frequencies.
func (b *Backend) FLOPS() float64 { return b.cfg.Device.CPUFLOPS(b.cfg.Threads) }

// ScheduleOverheadMs is zero on CPU (Equation 5).
func (b *Backend) ScheduleOverheadMs() float64 { return 0 }

// PreferredLayout stores rank-4 activations in NC4HW4, everything else flat.
func (b *Backend) PreferredLayout(rank int) tensor.Layout {
	if rank == 4 {
		return tensor.NC4HW4
	}
	return tensor.NCHW
}

// Supports implements backend.Backend: the CPU backend is the universal
// fallback and runs every operator.
func (b *Backend) Supports(n *graph.Node) bool { return true }

// ConvSchemeFor implements core.ConvSchemer: the Equation 2–3 heuristic
// decision with any configured override (tuner decisions, fixed-scheme
// baselines) applied. Workspace sizing, kernel creation, the int8 partition
// and session statistics all flow through this single decision point.
func (b *Backend) ConvSchemeFor(n *graph.Node, inShape []int) core.ConvDecision {
	dec := core.SelectConvScheme(n.Attrs.(*graph.Conv2DAttrs), inShape)
	if b.cfg.ForceScheme != nil {
		dec = b.cfg.ForceScheme(n, dec)
	}
	return dec
}

// OnExecuteBegin implements backend.Backend (no-op on CPU).
func (b *Backend) OnExecuteBegin() {}

// OnExecuteEnd implements backend.Backend (no-op on CPU).
func (b *Backend) OnExecuteEnd() {}

// OnCopyBuffer copies logically, converting layouts when they differ.
func (b *Backend) OnCopyBuffer(src, dst *tensor.Tensor) error {
	if !tensor.EqualShape(src.Shape(), dst.Shape()) {
		return fmt.Errorf("cpu: copy shape mismatch %v vs %v", src.Shape(), dst.Shape())
	}
	dst.CopyFrom(src)
	return nil
}

// charge records simulated cost for an op execution.
func (b *Backend) charge(label string, muls int64, n *graph.Node, scheme string) {
	if b.cfg.Clock == nil {
		return
	}
	eff := 1.0
	if b.cfg.Efficiency != nil {
		eff = b.cfg.Efficiency(n, scheme)
	}
	b.cfg.Clock.Charge(label, simclock.CPUCostMs(muls, b.FLOPS(), eff))
}

// Threads exposes the configured worker count.
func (b *Backend) Threads() int { return b.cfg.Threads }
