package mnn

import (
	"fmt"
	"runtime"
	"strings"

	"mnn/internal/core"
	"mnn/internal/cpu"
	"mnn/internal/fault"
	"mnn/internal/tuner"
)

// Option configures an Engine at Open time (functional-options pattern).
// Each validates eagerly so Open can fail fast with a typed error.
type Option func(*engineConfig) error

// engineConfig is the resolved configuration an Engine is built from.
type engineConfig struct {
	forward     ForwardType
	threads     int
	deviceName  string
	simulate    bool
	poolSize    int
	inputShapes map[string][]int
	// dynamic marks inputShapes as *maximum* shapes (WithMaxInputShapes):
	// the engine plans once at the max and serves any smaller shape per run.
	dynamic   bool
	noPrep    bool
	precision Precision
	// int8Plan, nonNegActs and actScales are derived from the graph at Open
	// time when precision is int8 (optimizer.PlanInt8 / graph.ActScales).
	int8Plan   map[string]bool
	nonNegActs map[string]bool
	actScales  map[string]float32
	// tuning/tuningCache configure the kernel search; tuningPlan is the
	// committed search result and assignment the per-node backend schedule
	// it scored — both computed once per Open and shared by every pooled
	// session.
	tuning       TuningMode
	tuningCache  string
	tuningPlan   *tuner.Plan
	assignment   core.Assignment
	backendCosts core.BackendCosts
	// prepared is the weight set every session runs on (nil: WithoutPreparation).
	prepared *cpu.Prepared
	// faultPlan/fi arm deterministic fault injection (WithFaultPlan /
	// WithFaultInjector). fi == nil is the zero-cost disabled state.
	faultPlan *fault.Plan
	fi        *fault.Injector
}

func defaultEngineConfig() engineConfig {
	return engineConfig{forward: ForwardAuto, threads: 0, poolSize: 1}
}

// DefaultThreads is the CPU worker count used when none is configured:
// min(runtime.GOMAXPROCS(0), 4). Four is the paper's largest evaluated
// thread count (big-core clusters rarely go wider), and capping at
// GOMAXPROCS avoids oversubscribing small hosts.
func DefaultThreads() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// WithThreads sets the CPU worker count per pooled session. Zero (the
// default) resolves to DefaultThreads(); the paper evaluates 1, 2 and 4.
func WithThreads(n int) Option {
	return func(c *engineConfig) error {
		if n < 0 {
			return fmt.Errorf("mnn: WithThreads(%d): thread count must be >= 0 (0 = auto)", n)
		}
		c.threads = n
		return nil
	}
}

// WithForwardType selects the backend family (default ForwardAuto, which
// lets the Equation 4–5 cost model choose).
func WithForwardType(t ForwardType) Option {
	return func(c *engineConfig) error {
		if t < ForwardAuto || t > ForwardVulkan {
			return fmt.Errorf("%w: forward type %d", ErrUnknownBackend, t)
		}
		c.forward = t
		return nil
	}
}

// WithDevice selects a simulated device profile from Devices() ("MI6",
// "Mate20", …). The empty string means the host: no GPU simulation, generic
// cost-model constants.
func WithDevice(name string) Option {
	return func(c *engineConfig) error {
		c.deviceName = name
		return nil
	}
}

// WithSimulatedClock attaches a simulated clock charging the paper's
// Equation 5 costs; read it back with Engine.SimulatedMs. The clock is
// shared by every pooled session, so under concurrent load it accumulates
// the aggregate simulated device time.
func WithSimulatedClock() Option {
	return func(c *engineConfig) error {
		c.simulate = true
		return nil
	}
}

// WithPoolSize sets how many prepared sessions the Engine holds (default 1).
// Pre-inference runs once per pooled session at Open time, on one set of
// prepared weights built for the first and shared by all; Infer then serves
// up to n requests truly concurrently, with further callers queueing.
func WithPoolSize(n int) Option {
	return func(c *engineConfig) error {
		if n < 1 {
			return fmt.Errorf("mnn: WithPoolSize(%d): pool size must be >= 1", n)
		}
		c.poolSize = n
		return nil
	}
}

// Precision selects the numeric precision engines execute in.
type Precision int

const (
	// PrecisionFP32 is the default float32 execution.
	PrecisionFP32 Precision = iota
	// PrecisionInt8 runs eligible convolutions and fully-connected layers on
	// the prepared int8 kernels (symmetric per-channel weight quantization,
	// int32 accumulation), using calibrated activation scales when the model
	// carries them (quant.Calibrate / mnnconvert -calibrate) and per-sample
	// dynamic scales otherwise. Unsupported operators fall back to fp32.
	PrecisionInt8
)

func (p Precision) String() string {
	switch p {
	case PrecisionFP32:
		return "fp32"
	case PrecisionInt8:
		return "int8"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// WithPrecision selects the execution precision (default PrecisionFP32).
// PrecisionInt8 requires the CPU backend: combined with an explicit GPU
// forward type, Open fails with ErrUnknownBackend; with ForwardAuto the
// engine simply schedules everything on the CPU.
func WithPrecision(p Precision) Option {
	return func(c *engineConfig) error {
		if p < PrecisionFP32 || p > PrecisionInt8 {
			return fmt.Errorf("mnn: WithPrecision(%d): unknown precision", p)
		}
		c.precision = p
		return nil
	}
}

// ParsePrecision maps a precision name ("fp32"/"float32", "int8",
// case-insensitive) to its Precision, for CLI flags and the serving tier.
func ParsePrecision(s string) (Precision, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "fp32", "float32", "float":
		return PrecisionFP32, nil
	case "int8", "i8":
		return PrecisionInt8, nil
	default:
		return PrecisionFP32, fmt.Errorf("mnn: unknown precision %q (want fp32 or int8)", s)
	}
}

// WithInputShapes overrides the declared input shapes before pre-inference
// (a resize at open time).
func WithInputShapes(shapes map[string][]int) Option {
	return func(c *engineConfig) error {
		cp := make(map[string][]int, len(shapes))
		for name, s := range shapes {
			cp[name] = append([]int(nil), s...)
		}
		c.inputShapes = cp
		return nil
	}
}

// WithMaxInputShapes is WithInputShapes plus dynamic-shape mode: the engine
// runs pre-inference once at the given maximum shapes — arena, workspaces
// and prepared kernels are all sized for the max — and Infer then accepts
// any input whose rank matches and whose every dim is <= the planned max,
// re-deriving per-run shapes in place without re-preparation. Inputs that
// do not fit the plan fail with ErrShapeOutOfPlan, and so do shapes the
// graph itself rejects (a fully-connected layer fed a different number of
// features). Scheme choices are made once, at the max. Dynamic mode runs
// on the CPU backend, at either precision; Open fails with
// ErrUnknownBackend for an explicit GPU forward type.
func WithMaxInputShapes(shapes map[string][]int) Option {
	return func(c *engineConfig) error {
		cp := make(map[string][]int, len(shapes))
		for name, s := range shapes {
			for _, d := range s {
				if d < 1 {
					return fmt.Errorf("mnn: WithMaxInputShapes: input %q has non-positive dim in %v", name, s)
				}
			}
			cp[name] = append([]int(nil), s...)
		}
		c.inputShapes = cp
		c.dynamic = true
		return nil
	}
}

// WithoutPreparation disables preparation–execution decoupling (Table 2's
// ablation): every Infer re-plans memory and re-creates kernels. It forces
// the pool size to 1 since the ablation path mutates session state per run.
func WithoutPreparation() Option {
	return func(c *engineConfig) error {
		c.noPrep = true
		return nil
	}
}

// TuningMode selects how the engine picks the kernel/algorithm of each
// convolution at prepare time (the paper's semi-automated search).
type TuningMode = tuner.Mode

const (
	// TuningHeuristic keeps the built-in Equation 2–3 selection (default).
	TuningHeuristic = tuner.ModeHeuristic
	// TuningCost scores every legal algorithm with the analytic FLOP/bytes
	// cost model and commits the argmin.
	TuningCost = tuner.ModeCost
	// TuningMeasured micro-benchmarks the top cost-model candidates on the
	// real shapes at Open time and commits the fastest; combined with
	// WithTuningCache the measurements persist, so later Opens prepare fast
	// and deterministically.
	TuningMeasured = tuner.ModeMeasured
)

// TuningStats summarizes what the kernel search did during Open (cache
// hits, micro-benchmarks run); see Engine.TuningStats.
type TuningStats = tuner.Report

// WithTuning selects the kernel-search depth (default TuningHeuristic).
func WithTuning(m TuningMode) Option {
	return func(c *engineConfig) error {
		if m < TuningHeuristic || m > TuningMeasured {
			return fmt.Errorf("mnn: WithTuning(%d): unknown tuning mode", int(m))
		}
		c.tuning = m
		return nil
	}
}

// WithTuningCache sets the persistent tuning-cache file for TuningMeasured:
// measured winners are stored per host, keyed by convolution signature and
// lane count, and reused by later Opens, which then skip every
// micro-benchmark. Models pointed at one file merge entries (a signature
// fully determines its measurement on a host). A stale or corrupt cache
// file is ignored (the search falls back to the cost model and rewrites
// it) — it can never fail or corrupt an Open. Empty (the default) disables
// persistence.
func WithTuningCache(path string) Option {
	return func(c *engineConfig) error {
		c.tuningCache = path
		return nil
	}
}

// ParseTuningMode maps a tuning-mode name ("heuristic"/"off", "cost",
// "measured", case-insensitive) to its TuningMode, for CLI flags and the
// serving tier.
func ParseTuningMode(s string) (TuningMode, error) {
	return tuner.ParseMode(strings.ToLower(strings.TrimSpace(s)))
}

// FaultPlan is a deterministic fault-injection schedule: a seed plus rules
// arming named injection sites (engine.infer, session.kernel, tuner cache
// I/O, …). See ParseFaultPlan for the spec syntax and internal/fault for
// semantics. The zero plan injects nothing.
type FaultPlan = fault.Plan

// FaultInjector is an armed FaultPlan. One injector can be shared across
// engines (and the serving registry) so rule budgets like count=3 are
// global to the process rather than per engine.
type FaultInjector = fault.Injector

// ParseFaultPlan parses a -chaos style spec into a FaultPlan with the given
// seed:
//
//	site=mode[:latency][,p=0.3][,every=N][,after=N][,count=N][,match=substr][;...]
//
// e.g. "engine.infer=panic,after=10,count=3;mesh.transport=connreset,p=0.05".
func ParseFaultPlan(seed uint64, spec string) (*FaultPlan, error) {
	return fault.ParsePlan(seed, spec)
}

// WithFaultPlan arms deterministic fault injection for this engine: the
// plan's rules fire at the engine.infer and session.kernel sites and in the
// tuning-cache I/O during Open. Nil (the default) disables injection; the
// disabled hooks cost one pointer test and zero allocations on the hot
// path. Intended for chaos testing — see the README's fault-tolerance
// section.
func WithFaultPlan(p *FaultPlan) Option {
	return func(c *engineConfig) error {
		c.faultPlan = p
		return nil
	}
}

// WithFaultInjector is WithFaultPlan with an already-armed injector, so
// several engines (or a serving registry and its engines) share one set of
// rule counters. Overrides WithFaultPlan.
func WithFaultInjector(in *FaultInjector) Option {
	return func(c *engineConfig) error {
		c.fi = in
		return nil
	}
}

// ParseForwardType maps a backend name ("auto", "cpu", "metal", "opencl",
// "opengl", "vulkan", case-insensitive) to its ForwardType, for CLI flags.
func ParseForwardType(s string) (ForwardType, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "auto":
		return ForwardAuto, nil
	case "cpu":
		return ForwardCPU, nil
	case "metal":
		return ForwardMetal, nil
	case "opencl":
		return ForwardOpenCL, nil
	case "opengl":
		return ForwardOpenGL, nil
	case "vulkan":
		return ForwardVulkan, nil
	default:
		return ForwardAuto, fmt.Errorf("%w: %q (want auto, cpu, metal, opencl, opengl or vulkan)", ErrUnknownBackend, s)
	}
}
