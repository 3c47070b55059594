// Package gpusim implements software GPU backends behind the Figure 5
// interface: Metal, OpenCL, OpenGL and Vulkan variants that execute real
// arithmetic (via the CPU kernels, so results stay bit-checkable) while a
// simulated clock charges GPU-side costs per Equation 5 and Appendix C —
// compute at the device's GPU FLOPS, t_schedule per dispatch, and a
// command-encoding cost that the preparation–execution decoupling of
// Section 3.2 moves out of the inference loop (Table 2's experiment).
//
// Mobile GPUs and their drivers are unavailable in this reproduction; see
// DESIGN.md substitutions #2 and #3 for why this preserves the paper's
// measured behaviour.
package gpusim

import (
	"fmt"

	"mnn/internal/backend"
	"mnn/internal/core"
	"mnn/internal/cpu"
	"mnn/internal/device"
	"mnn/internal/graph"
	"mnn/internal/simclock"
	"mnn/internal/tensor"
)

// EncodeCostMs is the simulated cost of building one operator's command
// buffer / pipeline descriptor. Calibrated so that a ~95-operator MobileNet
// loses ≈45 ms when encoding happens inside the inference loop — the
// magnitude Table 2 reports on the MI6's Vulkan backend.
var EncodeCostMs = map[backend.Kind]float64{
	backend.KindVulkan: 0.50,
	backend.KindOpenCL: 0.45,
	backend.KindOpenGL: 0.45,
	backend.KindMetal:  0.30,
}

// TransferBytesPerMs is the simulated host↔device copy bandwidth
// (10 GB/s ⇒ 1e7 bytes per ms).
const TransferBytesPerMs = 1e7

// Config parameterizes one simulated GPU backend.
type Config struct {
	// Kind selects the API personality (Metal/OpenCL/OpenGL/Vulkan).
	Kind backend.Kind
	// Device supplies GPU FLOPS (Appendix C). Required.
	Device *device.Profile
	// Clock accumulates simulated time; nil disables simulation.
	Clock *simclock.Clock
	// Efficiency adjusts simulated compute cost per op; nil means 1.0.
	Efficiency cpu.EfficiencyModel
	// Convs holds the engine's conv decisions; the internal compute backend
	// prepares from them (cpu.Config.Convs), so a GPU-assigned convolution
	// runs the scheme its CPU twin would.
	Convs core.ConvRoutes
	// Supported restricts the op set (Table 4: GPU backends cover fewer
	// operators than CPU). Nil uses the default set for Kind.
	Supported map[graph.OpType]bool
	// DecoupledEncode moves command encoding into OnCreate (pre-inference),
	// the MNN behaviour. When false, every Run re-encodes — the "w/o"
	// row of Table 2.
	DecoupledEncode bool
	// ComputeThreads is the host thread count used for the real arithmetic
	// (does not affect simulated time).
	ComputeThreads int
}

// DefaultSupported returns the op coverage of each API personality, shaped
// after the relative operator counts of Table 4 (Metal 55 > Vulkan 35 >
// OpenCL 33 > OpenGL 15 of MNN's 94 CPU ops).
func DefaultSupported(kind backend.Kind) map[graph.OpType]bool {
	all := func(ops ...graph.OpType) map[graph.OpType]bool {
		m := map[graph.OpType]bool{}
		for _, o := range ops {
			m[o] = true
		}
		return m
	}
	switch kind {
	case backend.KindMetal:
		// Everything except transposed convolution.
		m := all(graph.AllOpTypes()...)
		delete(m, graph.OpDeconv2D)
		return m
	case backend.KindVulkan:
		m := all(graph.AllOpTypes()...)
		delete(m, graph.OpDeconv2D)
		delete(m, graph.OpInnerProduct)
		delete(m, graph.OpTanh)
		return m
	case backend.KindOpenCL:
		m := all(graph.AllOpTypes()...)
		delete(m, graph.OpDeconv2D)
		delete(m, graph.OpInnerProduct)
		delete(m, graph.OpTanh)
		delete(m, graph.OpSigmoid)
		return m
	case backend.KindOpenGL:
		return all(graph.OpInput, graph.OpConv2D, graph.OpPool, graph.OpReLU,
			graph.OpReLU6, graph.OpConcat, graph.OpEltwise, graph.OpSoftmax,
			graph.OpBatchNorm, graph.OpScale)
	default:
		return all(graph.AllOpTypes()...)
	}
}

// Backend is a simulated GPU.
type Backend struct {
	*backend.BufferTracker
	cfg      Config
	compute  *cpu.Backend // real arithmetic provider (unclocked)
	inFlight int          // dispatches recorded since OnExecuteBegin
}

// New creates a simulated GPU backend.
func New(cfg Config) (*Backend, error) {
	switch cfg.Kind {
	case backend.KindMetal, backend.KindOpenCL, backend.KindOpenGL, backend.KindVulkan:
	default:
		return nil, fmt.Errorf("gpusim: kind %v is not a GPU API", cfg.Kind)
	}
	if cfg.Device == nil {
		return nil, fmt.Errorf("gpusim: device profile required")
	}
	if cfg.Supported == nil {
		cfg.Supported = DefaultSupported(cfg.Kind)
	}
	if cfg.ComputeThreads < 1 {
		cfg.ComputeThreads = 1
	}
	return &Backend{
		BufferTracker: backend.NewBufferTracker(),
		cfg:           cfg,
		compute:       cpu.New(cpu.Config{Threads: cfg.ComputeThreads, Convs: cfg.Convs}),
	}, nil
}

// Close releases the internal compute backend's worker pool.
func (b *Backend) Close() error { return b.compute.Close() }

// Kind implements backend.Backend.
func (b *Backend) Kind() backend.Kind { return b.cfg.Kind }

// Name implements backend.Backend.
func (b *Backend) Name() string { return b.cfg.Kind.String() }

// FLOPS is the Appendix C GPU capability.
func (b *Backend) FLOPS() float64 { return b.cfg.Device.GPUFLOPS() }

// ScheduleOverheadMs is the Appendix C t_schedule for this API.
func (b *Backend) ScheduleOverheadMs() float64 { return b.api().ScheduleOverheadMs() }

func (b *Backend) api() device.GPUAPI {
	switch b.cfg.Kind {
	case backend.KindMetal:
		return device.APIMetal
	case backend.KindOpenCL:
		return device.APIOpenCL
	case backend.KindOpenGL:
		return device.APIOpenGL
	case backend.KindVulkan:
		return device.APIVulkan
	default:
		return device.APINone
	}
}

// PreferredLayout mirrors the CPU image layout (the simulated device memory
// is host memory).
func (b *Backend) PreferredLayout(rank int) tensor.Layout {
	if rank == 4 {
		return tensor.NC4HW4
	}
	return tensor.NCHW
}

// Supports implements backend.Backend per the configured op coverage.
func (b *Backend) Supports(n *graph.Node) bool { return b.cfg.Supported[n.Op] }

// OnExecuteBegin opens a fresh command stream for one inference.
func (b *Backend) OnExecuteBegin() { b.inFlight = 0 }

// OnExecuteEnd submits the stream: one submission overhead per inference.
func (b *Backend) OnExecuteEnd() {
	if b.inFlight > 0 && b.cfg.Clock != nil {
		b.cfg.Clock.Charge("submit", b.ScheduleOverheadMs())
	}
	b.inFlight = 0
}

// OnCopyBuffer models a host↔device (or device-internal) transfer.
func (b *Backend) OnCopyBuffer(src, dst *tensor.Tensor) error {
	if !tensor.EqualShape(src.Shape(), dst.Shape()) {
		return fmt.Errorf("gpusim: copy shape mismatch %v vs %v", src.Shape(), dst.Shape())
	}
	dst.CopyFrom(src)
	if b.cfg.Clock != nil {
		bytes := float64(src.NumElements() * 4)
		b.cfg.Clock.Charge("transfer", bytes/TransferBytesPerMs+b.ScheduleOverheadMs())
	}
	return nil
}

// commandBuffer is the encoded dispatch for one operator.
type commandBuffer struct {
	node    *graph.Node
	kernel  backend.Execution // real arithmetic
	costMs  float64           // simulated compute cost (Eq. 5 GPU branch)
	encoded bool
}

// OnCreate prepares the operator: the real compute kernel is built, and —
// when DecoupledEncode is on — the command buffer is encoded here, during
// pre-inference. Encoding during inference is what Table 2's "w/o" rows pay.
func (b *Backend) OnCreate(n *graph.Node, inputs, outputs []*tensor.Tensor, weights backend.WeightSource) (backend.Execution, error) {
	if !b.Supports(n) {
		return nil, fmt.Errorf("gpusim: %s does not support op %v", b.Name(), n.Op)
	}
	kernel, err := b.compute.OnCreate(n, inputs, outputs, weights)
	if err != nil {
		return nil, err
	}
	// Simulated compute cost: the GPU runs direct kernels — MUL is the
	// direct count (graph-level), divided by the efficiency model.
	var muls int64
	// Shape info is implicit in the bound tensors.
	shapes := graph.ShapeMap{}
	for i, t := range outputs {
		if i < len(n.Outputs) {
			shapes[n.Outputs[i]] = t.Shape()
		}
	}
	for i, t := range inputs {
		if i < len(n.Inputs) {
			shapes[n.Inputs[i]] = t.Shape()
		}
	}
	muls = graph.MULCount(n, shapes)
	eff := 1.0
	if b.cfg.Efficiency != nil {
		eff = b.cfg.Efficiency(n, "gpu")
	}
	cb := &commandBuffer{
		node:   n,
		kernel: kernel,
		costMs: simclock.GPUCostMs(muls, b.FLOPS(), b.ScheduleOverheadMs(), eff),
	}
	if b.cfg.DecoupledEncode {
		b.encode(cb) // pre-inference encoding (not charged to inference)
	}
	return execBound{b: b, cb: cb}, nil
}

// encode builds the command descriptor. The work itself is bookkeeping; its
// latency on a phone driver is the EncodeCostMs constant.
func (b *Backend) encode(cb *commandBuffer) {
	cb.encoded = true
}

type execBound struct {
	b  *Backend
	cb *commandBuffer
}

// Run dispatches the command buffer: re-encoding first if the session did
// not decouple preparation from execution.
func (e execBound) Run() error {
	b := e.b
	if !e.cb.encoded || !b.cfg.DecoupledEncode {
		b.encode(e.cb)
		if b.cfg.Clock != nil {
			b.cfg.Clock.Charge("encode", EncodeCostMs[b.cfg.Kind])
		}
	}
	if err := e.cb.kernel.Run(); err != nil {
		return err
	}
	if b.cfg.Clock != nil {
		b.cfg.Clock.Charge(e.cb.node.Op.String(), e.cb.costMs)
	}
	b.inFlight++
	return nil
}
