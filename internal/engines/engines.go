// Package engines models the competing mobile inference engines of the
// paper's evaluation — NCNN, MACE, TF-Lite, CoreML and TVM — as scheduling
// policies plus calibrated per-operator efficiency factors over the same
// Equation 5 cost substrate that prices MNN itself.
//
// The real binaries cannot run here (no phones, no GPU drivers; DESIGN.md
// substitution #4), so each baseline is characterized by its published
// strategy:
//
//   - NCNN/MACE: manual case-by-case kernels — excellent on the handful of
//     shapes they hand-optimized, an order of magnitude off elsewhere
//     (the paper's Figure 8 shows NCNN's 1×7/7×1 blind spot on
//     Inception-v3);
//   - TF-Lite: im2col+GEMM everywhere — uniform but never algorithmically
//     optimal, and its OpenGL backend degrades on wide convolutions
//     (Figure 7's ResNet-18 row);
//   - CoreML: Apple-tuned Metal, slightly ahead of portable engines on iOS
//     GPUs, unavailable elsewhere;
//   - TVM: offline auto-tuned kernels — near-peak once tuned, but tuning
//     and compiling cost minutes per (model, device) pair (Table 5);
//   - MNN: this repository's engine — semi-automated search: effective
//     MULs after Winograd/Strassen scheme selection at efficiency 1.0.
//
// Every factor below is a behavioral calibration, not a measurement of the
// named product.
package engines

import (
	"fmt"

	"mnn/internal/backend"
	"mnn/internal/core"
	"mnn/internal/device"
	"mnn/internal/gpusim"
	"mnn/internal/graph"
	"mnn/internal/simclock"
)

// Engine identifies a simulated engine.
type Engine string

const (
	MNN    Engine = "MNN"
	NCNN   Engine = "NCNN"
	MACE   Engine = "MACE"
	TFLite Engine = "TF-Lite"
	CoreML Engine = "CoreML"
	TVM    Engine = "TVM"
)

// All lists the comparison engines of Figure 7 (TVM is compared separately
// in Figure 9).
func All() []Engine { return []Engine{NCNN, MACE, TFLite, CoreML, MNN} }

// Mode selects CPU (with thread count) or GPU (with API) execution.
type Mode struct {
	GPU     bool
	Threads int          // CPU thread count
	API     backend.Kind // GPU API personality
}

func (m Mode) String() string {
	if m.GPU {
		return m.API.String()
	}
	return fmt.Sprintf("CPU%d", m.Threads)
}

// GPUAPIs returns which GPU APIs an engine ships on a given OS, per Table 4.
func GPUAPIs(e Engine, os string) []backend.Kind {
	switch e {
	case MNN:
		if os == "iOS" {
			return []backend.Kind{backend.KindMetal}
		}
		return []backend.Kind{backend.KindOpenCL, backend.KindOpenGL, backend.KindVulkan}
	case NCNN:
		return []backend.Kind{backend.KindVulkan} // iOS+Android per Table 4
	case MACE:
		if os == "iOS" {
			return nil // Android only
		}
		return []backend.Kind{backend.KindOpenCL}
	case TFLite:
		if os == "iOS" {
			return []backend.Kind{backend.KindMetal}
		}
		return []backend.Kind{backend.KindOpenGL}
	case CoreML:
		if os == "iOS" {
			return []backend.Kind{backend.KindMetal}
		}
		return nil
	default:
		return nil
	}
}

// SupportsDevice reports whether the engine runs on the device's OS at all.
func SupportsDevice(e Engine, dev *device.Profile) bool {
	switch e {
	case CoreML:
		return dev.OS == "iOS"
	case MACE:
		return dev.OS == "Android"
	default:
		return true
	}
}

// convClass buckets a convolution into the shapes manual engines optimize.
type convClass uint8

const (
	classCommon   convClass = iota // 1×1, 3×3 s1/s2, 5×5, depthwise 3×3
	classUncommon                  // 1×7, 7×1, 7×7, dilated, grouped, other
)

func classify(a *graph.Conv2DAttrs) convClass {
	k := [2]int{a.KernelH, a.KernelW}
	dil := a.DilationH > 1 || a.DilationW > 1
	if dil {
		return classUncommon
	}
	if a.IsDepthwise() {
		if k == [2]int{3, 3} || k == [2]int{5, 5} {
			return classCommon
		}
		return classUncommon
	}
	if a.Group > 1 {
		return classUncommon
	}
	switch k {
	case [2]int{1, 1}, [2]int{3, 3}, [2]int{5, 5}:
		return classCommon
	case [2]int{7, 7}:
		// The big 7×7 stem conv is common enough that NCNN/MACE cover it.
		return classCommon
	default:
		return classUncommon // 1×7, 7×1, 1×3, 3×1, …
	}
}

// cpuEff returns the efficiency factor (fraction of Equation 5 peak) of an
// engine's CPU kernel for one node. MNN is handled separately (it changes
// the MUL count instead).
func cpuEff(e Engine, n *graph.Node) float64 {
	base := map[Engine]float64{
		NCNN:   0.62, // hand assembly on covered shapes
		MACE:   0.60,
		TFLite: 0.45, // generic im2col+GEMM via Eigen-class code
		CoreML: 0.55,
		TVM:    0.62, // tuned schedules
	}[e]
	if base == 0 {
		base = 0.5
	}
	if n.Op != graph.OpConv2D {
		return base
	}
	a := n.Attrs.(*graph.Conv2DAttrs)
	if classify(a) == classUncommon {
		switch e {
		case NCNN:
			// Figure 8: un-optimized operators fall to naive loops.
			return 0.030
		case MACE:
			return 0.30
		case TFLite, CoreML, TVM:
			// im2col/tuned paths generalize; mild penalty only.
			return base * 0.8
		}
	}
	return base
}

// isPlain3x3s1 matches the one convolution shape every manual engine ships
// hand-written Winograd for.
func isPlain3x3s1(a *graph.Conv2DAttrs) bool {
	return a.KernelH == 3 && a.KernelW == 3 && a.Group <= 1 &&
		a.StrideH <= 1 && a.StrideW <= 1 && a.DilationH <= 1 && a.DilationW <= 1
}

// baselineEffMULs gives NCNN/MACE their hardcoded-Winograd savings on plain
// 3×3 stride-1 convolutions: on that exact shape the case-by-case engines
// are as algorithmically strong as MNN (the paper's Figure 7 shows NCNN ≈
// MNN on ResNet-18 CPU); everywhere else they run direct kernels.
func baselineEffMULs(e Engine, n *graph.Node, shapes graph.ShapeMap) (int64, float64) {
	muls := graph.MULCount(n, shapes)
	eff := cpuEff(e, n)
	if n.Op != graph.OpConv2D {
		return muls, eff
	}
	a := n.Attrs.(*graph.Conv2DAttrs)
	if (e == NCNN || e == MACE) && isPlain3x3s1(a) {
		return muls / 3, eff * 1.15
	}
	return muls, eff
}

// gpuEff returns the GPU efficiency factor per engine/API/device/node.
func gpuEff(e Engine, api backend.Kind, dev *device.Profile, n *graph.Node) float64 {
	var base float64
	switch {
	case e == CoreML && api == backend.KindMetal:
		base = 1.05 // Apple's own stack, slightly ahead of portable engines
	case e == MNN && api == backend.KindMetal:
		base = 0.92
	case e == MNN && api == backend.KindVulkan:
		base = 0.90
	case e == MNN && api == backend.KindOpenCL:
		base = 0.88
	case e == MNN && api == backend.KindOpenGL:
		base = 0.70
	case e == NCNN && api == backend.KindVulkan:
		// "NCNN with Vulkan backend is not very fast on MI6" — their Vulkan
		// path underperforms on Adreno; acceptable on Mali.
		if dev.GPU == "Adreno (TM) 540" || dev.GPU == "Adreno (TM) 530" {
			base = 0.30
		} else {
			base = 0.65
		}
	case e == MACE && api == backend.KindOpenCL:
		base = 0.80
	case e == TFLite && api == backend.KindOpenGL:
		base = 0.55
	case e == TFLite && api == backend.KindMetal:
		base = 0.60
	default:
		base = 0.5
	}
	if n != nil && n.Op == graph.OpConv2D {
		a := n.Attrs.(*graph.Conv2DAttrs)
		if e == TFLite && api == backend.KindOpenGL && a.InputCount >= 128 {
			// "TF-Lite with OpenGL still has much room for improvement on
			// ResNet-18": wide convolutions overwhelm its shader path.
			base *= 0.35
		}
		if classify(a) == classUncommon && (e == NCNN || e == MACE) {
			base *= 0.25
		}
	}
	return base
}

// CPUSIMDFactor converts the paper's frequency-sum CPU capability
// (Appendix C, used verbatim for Equation 5 *scheduling*) into a simulated
// *throughput*: NEON retires ~4 multiply-accumulates per core per cycle, so
// measured mobile-CPU latencies sit ≈4× below the frequency-sum prediction
// (e.g. MobileNet-v1's 569M MACs in ~15 ms on 4 A11 threads). Applied only
// when pricing simulated measurements, never when choosing backends.
const CPUSIMDFactor = 4.0

// mnnSchemeEff is the realization efficiency of each MNN kernel relative to
// Equation 5 peak: the Winograd/im2col pipelines are gather/scatter-bound,
// the packed direct kernels come closer to peak. Calibrated so the MNN/TVM
// and MNN/NCNN gaps match Figures 7–9.
var mnnSchemeEff = map[core.ConvScheme]float64{
	core.SchemeWinograd:    0.55,
	core.SchemeSliding:     0.80,
	core.SchemeStrassen1x1: 0.80,
	core.SchemeDepthwise:   0.80,
	core.SchemeIm2col:      0.55,
}

// mnnEffMULs returns MNN's effective MUL count for a node after scheme
// selection (Winograd/Strassen savings) and the realization efficiency of
// the chosen kernel.
func mnnEffMULs(n *graph.Node, shapes graph.ShapeMap) (int64, float64) {
	if n.Op == graph.OpConv2D {
		dec := core.SelectConvScheme(n.Attrs.(*graph.Conv2DAttrs), shapes[n.Inputs[0]])
		return dec.EffMULs, mnnSchemeEff[dec.Scheme]
	}
	return graph.MULCount(n, shapes), 0.8
}

// tvmEffMULs models TVM's auto-tuned kernels: tuning recovers Winograd-
// class savings on plain 3×3 stride-1 convolutions but not MNN's adaptive
// tile sizes or the Strassen 1×1 path.
func tvmEffMULs(n *graph.Node, shapes graph.ShapeMap) int64 {
	muls := graph.MULCount(n, shapes)
	if n.Op != graph.OpConv2D {
		return muls
	}
	if isPlain3x3s1(n.Attrs.(*graph.Conv2DAttrs)) {
		return muls * 45 / 100
	}
	return muls
}

// Result is one simulated measurement.
type Result struct {
	Engine Engine
	Device string
	Mode   Mode
	// SimMs is the simulated single-image inference latency.
	SimMs float64
	// CPUFallbackOps counts operators that ran on CPU in a GPU mode.
	CPUFallbackOps int
}

// Simulate prices one engine/device/mode/network combination with the
// Equation 5 cost model. computeThreads on real hardware equals
// mode.Threads; the simulated clock needs no real compute at all, so this
// walk is analytic and instant.
func Simulate(e Engine, g *graph.Graph, dev *device.Profile, mode Mode) (Result, error) {
	res := Result{Engine: e, Device: dev.Name, Mode: mode}
	if !SupportsDevice(e, dev) {
		return res, fmt.Errorf("engines: %s does not support %s (%s)", e, dev.Name, dev.OS)
	}
	shapes, err := graph.InferShapes(g, nil)
	if err != nil {
		return res, err
	}
	if !mode.GPU {
		res.SimMs = simulateCPU(e, g, shapes, dev, mode.Threads)
		return res, nil
	}
	ok := false
	for _, api := range GPUAPIs(e, dev.OS) {
		if api == mode.API {
			ok = true
			break
		}
	}
	if !ok {
		return res, fmt.Errorf("engines: %s has no %s backend on %s", e, mode.API, dev.OS)
	}
	ms, fallback := simulateGPU(e, g, shapes, dev, mode.API, mode.Threads)
	res.SimMs = ms
	res.CPUFallbackOps = fallback
	return res, nil
}

func simulateCPU(e Engine, g *graph.Graph, shapes graph.ShapeMap, dev *device.Profile, threads int) float64 {
	flops := dev.CPUFLOPS(threads) * CPUSIMDFactor
	var ms float64
	for _, n := range g.Nodes {
		var muls int64
		var eff float64
		switch e {
		case MNN:
			muls, eff = mnnEffMULs(n, shapes)
		case TVM:
			muls = tvmEffMULs(n, shapes)
			eff = cpuEff(e, n)
		default:
			muls, eff = baselineEffMULs(e, n, shapes)
		}
		ms += simclock.CPUCostMs(muls, flops, eff)
	}
	return ms
}

// supportedOn maps each engine's GPU op coverage. MNN uses the gpusim
// default sets (scaled from Table 4); baselines support convolution-family
// ops plus the common glue.
func supportedOn(e Engine, api backend.Kind, op graph.OpType) bool {
	if e == MNN {
		return gpusim.DefaultSupported(api)[op]
	}
	switch op {
	case graph.OpConv2D, graph.OpPool, graph.OpReLU, graph.OpReLU6,
		graph.OpConcat, graph.OpEltwise, graph.OpScale, graph.OpBatchNorm, graph.OpInput:
		return true
	case graph.OpSoftmax, graph.OpInnerProduct:
		// CoreML's full-stack Metal covers the heads too.
		return e == CoreML
	default:
		return false
	}
}

func simulateGPU(e Engine, g *graph.Graph, shapes graph.ShapeMap, dev *device.Profile, api backend.Kind, threads int) (float64, int) {
	gpuFLOPS := dev.GPUFLOPS()
	cpuFLOPS := dev.CPUFLOPS(max(1, threads))
	tSched := apiOverheadMs(api)
	var ms float64
	fallback := 0
	for _, n := range g.Nodes {
		muls := graph.MULCount(n, shapes)
		if supportedOn(e, api, n.Op) {
			eff := gpuEff(e, api, dev, n)
			gm := muls
			if e == MNN {
				// MNN's generated Winograd shaders give the GPU backends
				// the same algorithmic savings as the CPU (Section 3.3).
				gm, _ = mnnEffMULs(n, shapes)
			}
			ms += simclock.GPUCostMs(gm, gpuFLOPS, tSched, eff)
			continue
		}
		// Hybrid fallback to CPU (Section 3.2): CPU-priced plus transfers.
		fallback++
		var cpuMuls int64
		var eff float64
		if e == MNN {
			cpuMuls, eff = mnnEffMULs(n, shapes)
		} else {
			cpuMuls = muls
			eff = cpuEff(e, n)
		}
		ms += simclock.CPUCostMs(cpuMuls, cpuFLOPS*CPUSIMDFactor, eff) + 2*tSched
	}
	return ms, fallback
}

func apiOverheadMs(api backend.Kind) float64 {
	switch api {
	case backend.KindOpenCL, backend.KindOpenGL:
		return 0.05
	case backend.KindVulkan, backend.KindMetal:
		return 0.01
	default:
		return 0
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
