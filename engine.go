package mnn

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync/atomic"

	"mnn/internal/backend"
	"mnn/internal/converter"
	"mnn/internal/core"
	"mnn/internal/cpu"
	"mnn/internal/device"
	"mnn/internal/fault"
	"mnn/internal/gpusim"
	"mnn/internal/graph"
	"mnn/internal/models"
	"mnn/internal/optimizer"
	"mnn/internal/sched"
	"mnn/internal/session"
	"mnn/internal/simclock"
	"mnn/internal/tensor"
	"mnn/internal/tuner"
)

// Engine is the concurrent facade over the paper's prepared-session
// design. Open runs the full pre-inference (shape inference, Equation 4–5
// backend selection, Equation 2–3 scheme selection, Figure 3 memory
// planning, constant pre-computation) once per pooled session, on one set of
// prepared weights built for the engine and shared by every session, a
// rebuilt one included; Infer is then pure compute and safe to call from
// any number of goroutines — each call
// checks out a prepared session, copies the inputs in, runs, and copies the
// outputs back out, so callers never share tensors with the engine.
//
//	eng, err := mnn.Open("mobilenet-v1", mnn.WithThreads(4), mnn.WithPoolSize(4))
//	if err != nil { ... }
//	defer eng.Close()
//	out, err := eng.Infer(ctx, map[string]*mnn.Tensor{"data": img})
type Engine struct {
	g      *graph.Graph
	cfg    engineConfig
	clock  *simclock.Clock
	pool   chan *session.Session
	quit   chan struct{}
	closed atomic.Bool

	// fi is the armed fault injector (nil when injection is disabled).
	fi *fault.Injector
	// panics counts contained kernel panics; rebuilds counts poisoned
	// sessions successfully replaced in the pool.
	panics   atomic.Int64
	rebuilds atomic.Int64

	inputNames  []string
	outputNames []string
	inputShapes map[string][]int
	stats       session.Stats
}

// Open prepares a concurrent inference engine. The model may be:
//
//   - a *Graph, already built or loaded;
//   - a string naming a built-in network (see Networks()) or the path of a
//     serialized .mnng model file;
//   - an io.Reader streaming the binary model format.
//
// Options configure threads, backend family, simulated device, pool size and
// the preparation ablation; see the With* functions. Open fails with
// ErrUnknownNetwork, ErrUnknownDevice or ErrUnknownBackend (all wrap-aware).
func Open(model any, opts ...Option) (*Engine, error) {
	cfg := defaultEngineConfig()
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.threads == 0 {
		cfg.threads = DefaultThreads()
	}
	if cfg.noPrep {
		// The ablation path re-prepares inside every run and mutates session
		// state; a pool of them would just multiply the measurement noise.
		cfg.poolSize = 1
	}
	if cfg.fi == nil {
		cfg.fi = fault.NewInjector(cfg.faultPlan) // nil plan → nil injector
	}
	if cfg.dynamic {
		// Dynamic shapes re-derive geometry on prepared CPU kernels; the
		// ablation path re-prepares anyway and the int8/GPU paths bake
		// shape-dependent state (quant plans, staging schedules) into the
		// prepared form.
		if cfg.noPrep {
			return nil, fmt.Errorf("mnn: WithMaxInputShapes is incompatible with WithoutPreparation")
		}
		if cfg.precision == PrecisionInt8 {
			return nil, fmt.Errorf("mnn: WithMaxInputShapes requires fp32 precision")
		}
		if cfg.forward != ForwardAuto && cfg.forward != ForwardCPU {
			return nil, fmt.Errorf("%w: dynamic shapes require the CPU backend", ErrUnknownBackend)
		}
		cfg.forward = ForwardCPU
	}
	g, err := resolveModel(model)
	if err != nil {
		return nil, err
	}
	var tunedShapes graph.ShapeMap
	if cfg.tuning != TuningHeuristic {
		// Run the kernel search once; every pooled session shares the plan.
		var err error
		tunedShapes, err = graph.InferShapes(g, cfg.inputShapes)
		if err != nil {
			return nil, err
		}
		cfg.tuningPlan, err = tuner.New(g, tunedShapes, tuner.Config{
			Mode:      cfg.tuning,
			Threads:   cfg.threads,
			Int8:      cfg.precision == PrecisionInt8,
			CachePath: cfg.tuningCache,
			ModelKey:  tuningModelKey(g),
			Fault:     cfg.fi,
		})
		if err != nil {
			return nil, err
		}
	}
	if cfg.precision == PrecisionInt8 {
		// The int8 kernels are CPU-only; an explicit GPU forward type is a
		// configuration error, ForwardAuto just schedules on the CPU.
		if cfg.forward != ForwardAuto && cfg.forward != ForwardCPU {
			return nil, fmt.Errorf("%w: int8 precision requires the CPU backend", ErrUnknownBackend)
		}
		cfg.forward = ForwardCPU
		// The partition must follow the schemes that will actually run:
		// Int8ConvSupported depends on the chosen algorithm, so a tuned
		// engine plans from the tuner's decisions.
		plan, err := optimizer.PlanInt8With(g, cfg.inputShapes, schemeResolver(cfg.tuningPlan))
		if err != nil {
			return nil, err
		}
		cfg.int8Plan = plan.Int8
		cfg.nonNegActs = plan.NonNegActs
		cfg.actScales = g.ActScales
	}
	if cfg.tuningPlan != nil && cfg.deviceName != "" && cfg.forward != ForwardCPU {
		// Score the backend schedule once; sessions share it (after the int8
		// block, which may have pinned the forward type to CPU). Without a
		// device profile no GPU backend can exist, so the common CPU-only
		// Open skips the throwaway provider stack entirely.
		cfg.assignment, cfg.backendCosts, err = scoredAssignment(g, tunedShapes, cfg)
		if err != nil {
			return nil, err
		}
	}
	if !cfg.noPrep {
		cfg.prepared = new(cpu.Prepared)
	}
	var clock *simclock.Clock
	if cfg.simulate {
		clock = simclock.New()
	}
	e := &Engine{
		g:     g,
		cfg:   cfg,
		clock: clock,
		fi:    cfg.fi,
		pool:  make(chan *session.Session, cfg.poolSize),
		quit:  make(chan struct{}),
	}
	for i := 0; i < cfg.poolSize; i++ {
		s, err := newPreparedSession(g, cfg, clock)
		if err != nil {
			// Sessions already pooled hold parked worker goroutines; a
			// failed Open must release them or they leak for good.
			e.drainPool()
			return nil, err
		}
		if i == 0 {
			e.stats = s.Stats()
			e.inputNames = append([]string(nil), g.InputNames...)
			e.outputNames = append([]string(nil), g.OutputNames...)
			e.inputShapes = make(map[string][]int, len(g.InputNames))
			for _, name := range g.InputNames {
				if t := s.Input(name); t != nil {
					e.inputShapes[name] = append([]int(nil), t.Shape()...)
				}
			}
		}
		e.pool <- s
	}
	return e, nil
}

// tuningModelKey identifies a graph inside the tuning cache. Decisions are
// re-validated against the legality predicates on load, so a key collision
// can cost performance but never correctness; the node count guards the
// common collision (two differently-sized graphs sharing a name).
func tuningModelKey(g *graph.Graph) string {
	name := g.Name
	if name == "" {
		name = "unnamed"
	}
	return fmt.Sprintf("%s+%dnodes", name, len(g.Nodes))
}

// schemeResolver adapts a (possibly nil) tuning plan to the optimizer's
// scheme-resolver hook; nil keeps the heuristic.
func schemeResolver(p *tuner.Plan) func(n *graph.Node, inShape []int) core.ConvDecision {
	if p == nil {
		return nil
	}
	return p.SchemeFor
}

// resolveModel turns Open's polymorphic model argument into a graph.
func resolveModel(model any) (*graph.Graph, error) {
	switch m := model.(type) {
	case *graph.Graph:
		if m == nil {
			return nil, fmt.Errorf("%w: nil graph", ErrUnknownNetwork)
		}
		return m, nil
	case string:
		if g, err := models.ByName(m); err == nil {
			return g, nil
		}
		if st, err := os.Stat(m); err == nil {
			if st.IsDir() {
				return nil, fmt.Errorf("%w: %q is a directory, not a model file", ErrUnknownNetwork, m)
			}
			return LoadGraphFile(m)
		}
		return nil, fmt.Errorf("%w: %q is neither a built-in network (see mnn.Networks()) nor a model file", ErrUnknownNetwork, m)
	case io.Reader:
		return converter.Load(m)
	default:
		return nil, fmt.Errorf("%w: unsupported model type %T (want *mnn.Graph, string or io.Reader)", ErrUnknownNetwork, model)
	}
}

// newBackends assembles the backend stack for one prepared session: the CPU
// fallback plus whatever simulated GPU APIs the configuration requests. The
// clock (may be nil) is shared across the whole pool so simulated time
// aggregates over concurrent inferences.
func newBackends(cfg engineConfig, clock *simclock.Clock) ([]backend.Backend, error) {
	dev := device.Host
	if cfg.deviceName != "" {
		dev = device.ByName(cfg.deviceName)
		if dev == nil {
			return nil, fmt.Errorf("%w: %q (see mnn.Devices())", ErrUnknownDevice, cfg.deviceName)
		}
	}
	// Each session owns one persistent worker pool; every kernel of every
	// operator dispatches onto it, so steady-state inference spawns no
	// goroutines. Session.Close (via Engine.Close) releases the workers.
	var force func(*graph.Node, core.ConvDecision) core.ConvDecision
	if cfg.tuningPlan != nil {
		force = cfg.tuningPlan.ForceScheme
	}
	backends := []backend.Backend{
		cpu.New(cpu.Config{Threads: cfg.threads, Device: dev, Clock: clock,
			Pool:        sched.New(cfg.threads),
			ForceScheme: force,
			Int8:        cfg.precision == PrecisionInt8, QuantPlan: cfg.int8Plan,
			ActScales: cfg.actScales, NonNegActs: cfg.nonNegActs,
			Prepared: cfg.prepared}),
	}
	addGPU := func(kind backend.Kind, api device.GPUAPI) error {
		if !dev.HasAPI(api) {
			return fmt.Errorf("%w: device %s has no %s support", ErrUnknownBackend, dev.Name, kind)
		}
		b, err := gpusim.New(gpusim.Config{Kind: kind, Device: dev, Clock: clock,
			DecoupledEncode: !cfg.noPrep, ComputeThreads: cfg.threads,
			ForceScheme: force})
		if err != nil {
			return err
		}
		backends = append(backends, b)
		return nil
	}
	switch cfg.forward {
	case ForwardAuto:
		if cfg.deviceName != "" {
			for _, c := range []struct {
				kind backend.Kind
				api  device.GPUAPI
			}{
				{backend.KindMetal, device.APIMetal},
				{backend.KindOpenCL, device.APIOpenCL},
				{backend.KindOpenGL, device.APIOpenGL},
				{backend.KindVulkan, device.APIVulkan},
			} {
				if dev.HasAPI(c.api) {
					if err := addGPU(c.kind, c.api); err != nil {
						return nil, err
					}
				}
			}
		}
	case ForwardCPU:
		// CPU only.
	case ForwardMetal:
		if err := addGPU(backend.KindMetal, device.APIMetal); err != nil {
			return nil, err
		}
	case ForwardOpenCL:
		if err := addGPU(backend.KindOpenCL, device.APIOpenCL); err != nil {
			return nil, err
		}
	case ForwardOpenGL:
		if err := addGPU(backend.KindOpenGL, device.APIOpenGL); err != nil {
			return nil, err
		}
	case ForwardVulkan:
		if err := addGPU(backend.KindVulkan, device.APIVulkan); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: forward type %d", ErrUnknownBackend, cfg.forward)
	}
	return backends, nil
}

// newPreparedSession builds one session, running pre-inference unless the
// configuration disables it.
func newPreparedSession(g *graph.Graph, cfg engineConfig, clock *simclock.Clock) (*session.Session, error) {
	backends, err := newBackends(cfg, clock)
	if err != nil {
		return nil, err
	}
	s, err := session.New(g, session.Config{
		Backends:      backends,
		Assignment:    cfg.assignment,
		BackendCosts:  cfg.backendCosts,
		InputShapes:   cfg.inputShapes,
		NoPreparation: cfg.noPrep,
		Fault:         cfg.fi,
	})
	if err != nil {
		// session.New owns no backend resources on failure; release the
		// worker pools we just created so a failed prepare can't leak them.
		for _, b := range backends {
			if c, ok := b.(interface{ Close() error }); ok {
				c.Close()
			}
		}
		return nil, err
	}
	if cfg.dynamic {
		// Done here (not in Open's pool loop) so panic-poisoned sessions
		// rebuilt mid-serve come back dynamic too.
		if err := s.EnableDynamic(); err != nil {
			s.Close()
			return nil, fmt.Errorf("mnn: dynamic shapes: %w", err)
		}
	}
	return s, nil
}

// scoredAssignment runs the tuner's per-node backend scoring (compute +
// t_schedule + staging transfers instead of the whole-graph Equation 4
// argmin) against a throwaway backend stack, once per Open; every pooled
// session reuses the assignment and its per-backend cost totals. Returns
// nils (keep the built-in selection) when only the CPU backend is
// configured.
func scoredAssignment(g *graph.Graph, shapes graph.ShapeMap, cfg engineConfig) (core.Assignment, core.BackendCosts, error) {
	backends, err := newBackends(cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		for _, b := range backends {
			if c, ok := b.(interface{ Close() error }); ok {
				c.Close()
			}
		}
	}()
	if len(backends) < 2 {
		return nil, nil, nil
	}
	providers := make([]core.CostProvider, len(backends))
	for i, b := range backends {
		providers[i] = b
	}
	assign, costs := tuner.ScoreBackends(g, shapes, providers)
	return assign, costs, nil
}

// Infer runs one inference. It is safe for concurrent use: up to PoolSize
// inferences run truly in parallel, further callers queue for a session.
// The inputs map must provide every declared graph input with the prepared
// shape (ErrInputShape otherwise); returned tensors are fresh NCHW copies
// owned by the caller. A cancelled or expired ctx aborts promptly — while
// queueing, or between pipeline operators mid-run — with ErrCancelled.
func (e *Engine) Infer(ctx context.Context, inputs map[string]*Tensor) (out map[string]*Tensor, err error) {
	s, err := e.checkout(ctx)
	if err != nil {
		return nil, err
	}
	defer func() { e.finish(s, recover(), &err) }()
	if err := e.faultHit(); err != nil {
		return nil, err
	}
	if err := e.fillInputs(s, inputs); err != nil {
		return nil, err
	}
	if err := s.Run(ctx); err != nil {
		return nil, e.wrapRunErr(err)
	}
	return e.copyOutputs(s), nil
}

// InferInto is Infer writing results into caller-provided output tensors
// instead of allocating fresh copies: outputs must map every declared graph
// output to a tensor of the produced shape (any layout). Together with the
// planner-backed workspaces and the persistent worker pool this makes
// steady-state inference fully allocation-free — the serving tier reuses
// response buffers across requests instead of feeding the GC.
func (e *Engine) InferInto(ctx context.Context, inputs, outputs map[string]*Tensor) (err error) {
	s, err := e.checkout(ctx)
	if err != nil {
		return err
	}
	defer func() { e.finish(s, recover(), &err) }()
	if err := e.faultHit(); err != nil {
		return err
	}
	if err := e.fillInputs(s, inputs); err != nil {
		return err
	}
	for _, name := range e.outputNames {
		dst := outputs[name]
		if dst == nil {
			return fmt.Errorf("%w: missing output tensor %q (model outputs: %v)", ErrInputShape, name, e.outputNames)
		}
		if !tensor.EqualShape(dst.Shape(), s.Output(name).Shape()) {
			return fmt.Errorf("%w: output %q has shape %v, engine produces %v",
				ErrInputShape, name, dst.Shape(), s.Output(name).Shape())
		}
	}
	if err := s.Run(ctx); err != nil {
		return e.wrapRunErr(err)
	}
	for _, name := range e.outputNames {
		outputs[name].CopyFrom(s.Output(name))
	}
	return nil
}

// InferProfiled is Infer with a per-operator timing breakdown.
func (e *Engine) InferProfiled(ctx context.Context, inputs map[string]*Tensor) (out map[string]*Tensor, prof *Profile, err error) {
	s, err := e.checkout(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer func() { e.finish(s, recover(), &err) }()
	if err := e.faultHit(); err != nil {
		return nil, nil, err
	}
	if err := e.fillInputs(s, inputs); err != nil {
		return nil, nil, err
	}
	p, err := s.RunProfiled(ctx)
	if err != nil {
		return nil, nil, e.wrapRunErr(err)
	}
	return e.copyOutputs(s), p, nil
}

// faultHit evaluates the engine.infer injection site (nil injector: one
// pointer test, no allocations). An injected panic unwinds into finish's
// containment barrier like a real kernel panic would.
func (e *Engine) faultHit() error {
	if e.fi == nil {
		return nil
	}
	if o := e.fi.Hit(fault.SiteEngineInfer, e.g.Name); o != nil {
		if err := o.Apply(); err != nil {
			return fmt.Errorf("mnn: infer %q: %w", e.g.Name, err)
		}
	}
	return nil
}

// wrapRunErr maps session.Run errors onto the public error surface: a
// contained kernel panic becomes *KernelPanicError (wrapping ErrKernelPanic)
// and cancellation becomes ErrCancelled; everything else passes through.
func (e *Engine) wrapRunErr(err error) error {
	var pe *sched.PanicError
	if errors.As(err, &pe) {
		return &KernelPanicError{Op: pe.Op, Value: pe.Value, Stack: pe.Stack}
	}
	return wrapCancel(err)
}

// finish settles a checked-out session after an inference attempt. The
// healthy path checks the session back in. A kernel panic — whether it
// surfaced as an error from the session barrier or unwound to this frame —
// counts against the engine and poisons the session: it is closed and a
// freshly prepared replacement takes its pool slot, so one bad inference
// never degrades the sessions later requests run on.
func (e *Engine) finish(s *session.Session, recovered any, errp *error) {
	if recovered != nil {
		kp, ok := recovered.(*KernelPanicError)
		if !ok {
			if pe, isPE := recovered.(*sched.PanicError); isPE {
				kp = &KernelPanicError{Op: pe.Op, Value: pe.Value, Stack: pe.Stack}
			} else {
				kp = &KernelPanicError{Op: e.g.Name, Value: recovered, Stack: debug.Stack()}
			}
		}
		if kp.Op == "" {
			kp.Op = e.g.Name
		}
		*errp = kp
		e.panics.Add(1)
		e.poisonAndRebuild(s)
		return
	}
	// The nil guard keeps errors.As — whose any-typed target forces a heap
	// escape — off the allocation-free happy path.
	if *errp != nil {
		var kp *KernelPanicError
		if errors.As(*errp, &kp) {
			e.panics.Add(1)
			e.poisonAndRebuild(s)
			return
		}
	}
	e.checkin(s)
}

// poisonAndRebuild retires a session a panic escaped from and replaces it
// with a freshly prepared one. If the rebuild itself fails, the closed
// session is returned to the pool instead — a closed session still runs
// correctly (inline execution), so pool capacity is preserved either way.
func (e *Engine) poisonAndRebuild(s *session.Session) {
	s.Close()
	if e.closed.Load() {
		return
	}
	ns, err := newPreparedSession(e.g, e.cfg, e.clock)
	if err != nil {
		e.checkin(s)
		return
	}
	e.rebuilds.Add(1)
	e.checkin(ns)
}

// KernelPanics reports how many kernel panics the engine has contained.
func (e *Engine) KernelPanics() int64 { return e.panics.Load() }

// SessionRebuilds reports how many poisoned sessions were replaced.
func (e *Engine) SessionRebuilds() int64 { return e.rebuilds.Load() }

// checkout acquires a prepared session, honouring cancellation and Close.
func (e *Engine) checkout(ctx context.Context) (*session.Session, error) {
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCancelled, err)
	}
	select {
	case s := <-e.pool:
		// The select picks uniformly among ready cases, so a checked-in
		// session can win against an already-closed quit channel; re-check
		// so queued callers never start new work after Close. The dropped
		// session must be released here — Close may have drained the pool
		// already, and parked pool workers are never garbage-collected.
		if e.closed.Load() {
			s.Close()
			return nil, ErrEngineClosed
		}
		return s, nil
	case <-e.quit:
		return nil, ErrEngineClosed
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %v", ErrCancelled, ctx.Err())
	}
}

// checkin returns a session to the pool, or releases it once the engine is
// closed so the pool drains for good.
func (e *Engine) checkin(s *session.Session) {
	if e.closed.Load() {
		s.Close()
		return
	}
	e.pool <- s
	// Close may have set closed and drained the pool between the check and
	// the send, which would park this session (and its worker goroutines)
	// forever; re-check and re-drain. Both sides draining is fine —
	// session.Close is idempotent.
	if e.closed.Load() {
		e.drainPool()
	}
}

// drainPool releases every idle session currently parked in the pool.
func (e *Engine) drainPool() {
	for {
		select {
		case s := <-e.pool:
			s.Close()
		default:
			return
		}
	}
}

// fillInputs validates the request against the prepared shapes and copies
// the caller's tensors into the session. On a dynamic engine the prepared
// shapes are maxima: any input of matching rank with every dim <= the max
// is accepted, and the session's activation shapes are re-derived in place
// before the copy; anything else fails with ErrShapeOutOfPlan *before* a
// single arena byte is touched.
func (e *Engine) fillInputs(s *session.Session, inputs map[string]*Tensor) error {
	for name := range inputs {
		if _, ok := e.inputShapes[name]; !ok {
			return fmt.Errorf("%w: unknown input %q (model inputs: %v)", ErrInputShape, name, e.inputNames)
		}
	}
	if e.cfg.dynamic {
		return e.fillInputsDynamic(s, inputs)
	}
	for _, name := range e.inputNames {
		t, ok := inputs[name]
		if !ok || t == nil {
			return fmt.Errorf("%w: missing input %q", ErrInputShape, name)
		}
		dst := s.Input(name)
		if !tensor.EqualShape(dst.Shape(), t.Shape()) {
			return fmt.Errorf("%w: input %q has shape %v, engine prepared %v", ErrInputShape, name, t.Shape(), dst.Shape())
		}
		dst.CopyFrom(t)
	}
	return nil
}

// fillInputsDynamic is fillInputs' dynamic-shape path. The happy path — a
// shape the session has already derived a plan for — performs zero
// allocations.
func (e *Engine) fillInputsDynamic(s *session.Session, inputs map[string]*Tensor) error {
	for _, name := range e.inputNames {
		t, ok := inputs[name]
		if !ok || t == nil {
			return fmt.Errorf("%w: missing input %q", ErrInputShape, name)
		}
		max := e.inputShapes[name]
		ts := t.Shape()
		if len(ts) != len(max) {
			return fmt.Errorf("%w: input %q has rank %d, plan has rank %d (max shape %v)",
				ErrShapeOutOfPlan, name, len(ts), len(max), max)
		}
		for i, d := range ts {
			if d < 1 || d > max[i] {
				return fmt.Errorf("%w: input %q shape %v exceeds planned max %v at dim %d",
					ErrShapeOutOfPlan, name, ts, max, i)
			}
		}
	}
	if err := s.ApplyInputShapes(inputs); err != nil {
		return fmt.Errorf("%w: %v", ErrShapeOutOfPlan, err)
	}
	for _, name := range e.inputNames {
		s.Input(name).CopyFrom(inputs[name])
	}
	return nil
}

// copyOutputs snapshots the session outputs into caller-owned NCHW tensors.
func (e *Engine) copyOutputs(s *session.Session) map[string]*Tensor {
	out := make(map[string]*Tensor, len(e.outputNames))
	for _, name := range e.outputNames {
		src := s.Output(name)
		dst := tensor.New(src.Shape()...)
		dst.CopyFrom(src)
		out[name] = dst
	}
	return out
}

// wrapCancel maps context cancellation surfaced by session.Run onto the
// ErrCancelled sentinel while passing other errors through.
func wrapCancel(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %v", ErrCancelled, err)
	}
	return err
}

// Close marks the engine closed; subsequent and queued Infer calls return
// ErrEngineClosed. In-flight inferences finish normally. Close is idempotent.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	close(e.quit)
	// Release idle sessions — their worker pools shut down and their arenas
	// can be collected; sessions still checked out are released by checkin.
	e.drainPool()
	return nil
}

// Graph exposes the underlying graph (e.g. for inspection or export).
func (e *Engine) Graph() *Graph { return e.g }

// PoolSize reports how many prepared sessions the engine holds.
func (e *Engine) PoolSize() int { return e.cfg.poolSize }

// Threads reports the resolved CPU worker count per pooled session (the
// WithThreads value, or DefaultThreads() when left at auto).
func (e *Engine) Threads() int { return e.cfg.threads }

// Precision reports the execution precision the engine was opened with.
func (e *Engine) Precision() Precision { return e.cfg.precision }

// Tuning reports the kernel-search mode the engine was opened with.
func (e *Engine) Tuning() TuningMode { return e.cfg.tuning }

// TuningStats summarizes what the kernel search did during Open: how many
// convolutions it covered, how many unique signatures it saw, how many were
// resolved from the tuning cache, and how many candidates were actually
// micro-benchmarked. With TuningHeuristic (the default) only Mode is set.
func (e *Engine) TuningStats() TuningStats {
	if e.cfg.tuningPlan == nil {
		return TuningStats{Mode: e.cfg.tuning.String()}
	}
	return e.cfg.tuningPlan.Report
}

// InputNames lists the declared graph inputs.
func (e *Engine) InputNames() []string { return append([]string(nil), e.inputNames...) }

// OutputNames lists the declared graph outputs.
func (e *Engine) OutputNames() []string { return append([]string(nil), e.outputNames...) }

// InputShape returns the prepared shape of a declared input (nil if unknown).
// On a dynamic engine this is the planned maximum shape.
func (e *Engine) InputShape(name string) []int {
	return append([]int(nil), e.inputShapes[name]...)
}

// DynamicShapes returns the planned maximum input shapes when the engine was
// opened with WithMaxInputShapes, nil otherwise. The serving tier uses this
// to detect that one engine can batch every sequence length up to the max.
func (e *Engine) DynamicShapes() map[string][]int {
	if !e.cfg.dynamic {
		return nil
	}
	out := make(map[string][]int, len(e.inputShapes))
	for name, s := range e.inputShapes {
		out[name] = append([]int(nil), s...)
	}
	return out
}

// Stats returns pre-inference statistics (backend assignment, scheme counts,
// arena sizes) of one pooled session; every session decides identically.
func (e *Engine) Stats() SessionStats { return e.stats }

// MemoryBytes estimates the engine's resident size: the graph's weight
// tensors plus every pooled session's planned arenas (4 bytes per float32
// element). Weights of a shared graph are charged to each engine opened on
// it, which over-counts; the one prepared copy the engine's sessions share —
// GEMM panels, Winograd-transformed filters (mh·mw/(kh·kw) × the layer's
// weights), int8 panels — is not counted at all, which under-counts. A
// serving registry's budget is therefore an estimate, not a bound (ROADMAP:
// counting them needs the benchmark's resident_mib re-baselined first).
func (e *Engine) MemoryBytes() int64 {
	var total int64
	for _, w := range e.g.Weights {
		if w != nil {
			total += int64(w.NumElements())
		}
	}
	var arena int64
	for _, n := range e.stats.ArenaFloats {
		arena += int64(n)
	}
	total += arena * int64(e.cfg.poolSize)
	return total * 4
}

// SimulatedMs returns the aggregate simulated time charged by every pooled
// session (WithSimulatedClock); zero without the option.
func (e *Engine) SimulatedMs() float64 { return e.clock.TotalMs() }

// SimulatedByLabel returns the per-operator-label simulated-time breakdown.
func (e *Engine) SimulatedByLabel() map[string]float64 { return e.clock.ByLabel() }

// ResetSimulatedClock zeroes the shared simulated clock.
func (e *Engine) ResetSimulatedClock() { e.clock.Reset() }
