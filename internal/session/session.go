// Package session implements the inference session of Figure 2: it runs the
// complete pre-inference pipeline (shape inference → backend selection →
// computation-scheme selection → memory planning → constant pre-computation)
// once, and then serves arbitrarily many pure-compute inferences.
package session

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"mnn/internal/backend"
	"mnn/internal/core"
	"mnn/internal/fault"
	"mnn/internal/graph"
	"mnn/internal/optimizer"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// Config parameterizes session creation.
type Config struct {
	// Backends lists candidate backends; index 0 must be the CPU fallback.
	Backends []backend.Backend
	// Assignment optionally pins nodes to backends (by backend Name). Nil
	// runs the Equation 4–5 selection.
	Assignment core.Assignment
	// BackendCosts optionally supplies the cost totals behind a pinned
	// Assignment (e.g. the tuner's per-node scoring) for Stats reporting;
	// meaningful only with Assignment set.
	BackendCosts core.BackendCosts
	// InputShapes optionally overrides declared input shapes (resize).
	InputShapes map[string][]int
	// NoPreparation disables the preparation–execution decoupling: every
	// Run re-plans memory and re-creates executions, interleaving
	// management with compute the way Figure 3's left column shows. Used
	// by the Table 2 ablation.
	NoPreparation bool
	// Fault is the optional fault injector for the session.kernel site
	// (nil disables injection at zero cost).
	Fault *fault.Injector
	// Unfused keeps every graph node a step of its own, so that
	// RunObserved sees every activation (the calibration pass); by default
	// attention runs as one fused step (optimizer.FuseAttention) and its
	// scores and probabilities are never materialized, and a channel
	// concat whose inputs are written in place runs no step.
	Unfused bool
}

// copyOp mirrors a produced tensor onto a consuming backend.
type copyOp struct {
	from, to *tensor.Tensor
	via      backend.Backend
}

// runStep is one node's execution with its staging copies.
type runStep struct {
	copies []copyOp
	exec   backend.Execution
	node   *graph.Node
	outs   []*tensor.Tensor // bound output tensors, for RunObserved
}

// Stats summarizes what pre-inference decided.
type Stats struct {
	// BackendCosts is the Equation 4 total per candidate backend.
	BackendCosts core.BackendCosts
	// Assignment maps node → backend name.
	Assignment core.Assignment
	// SchemeCounts counts convolutions per kernel route: the selected
	// scheme, or "int8-gemm" for those an int8 engine runs on the int8 tap
	// GEMM.
	SchemeCounts map[string]int
	// ArenaFloats is the planned arena size (float32 elements) per backend.
	ArenaFloats map[string]int
	// NoReuseFloats is what the arenas would cost without lifetime reuse.
	NoReuseFloats map[string]int
	// PrepareTime is how long pre-inference took.
	PrepareTime time.Duration
	// CrossBackendCopies counts staging copies in the schedule.
	CrossBackendCopies int
	// InPlaceConcats counts the channel concatenations whose inputs are
	// written straight into their channel ranges, so that they run no step.
	InPlaceConcats int
}

// Session is a prepared inference pipeline.
type Session struct {
	g        *graph.Graph
	cfg      Config
	shapes   graph.ShapeMap
	assign   core.Assignment
	steps    []runStep
	inputs   map[string]*tensor.Tensor
	outputs  map[string]*tensor.Tensor
	backends []backend.Backend
	stats    Stats

	// Dynamic-shape state (see dynamic.go). bound retains the arena-wrapped
	// activation tensors from the last prepare so EnableDynamic can build
	// its name → tensor map; views maps each input of an in-place concat to
	// its place in the concat's buffer; dyn is nil until EnableDynamic
	// succeeds.
	bound map[string]*tensor.Tensor
	views map[string]concatView
	dyn   *dynState
}

// concatView places an input of an in-place channel concatenation: its
// first channel pack is pack cz of the concat output parent, at batch 1.
type concatView struct {
	parent string
	cz     int
}

// New builds a session, running the full pre-inference unless
// cfg.NoPreparation is set (in which case preparation happens inside every
// Run, for the Table 2 ablation).
func New(g *graph.Graph, cfg Config) (*Session, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("session: at least one backend (CPU fallback) required")
	}
	if cfg.Backends[0].Kind() != backend.KindCPU {
		return nil, fmt.Errorf("session: backend 0 must be the CPU fallback, got %v", cfg.Backends[0].Kind())
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	gg := g.Clone()
	gg.Nodes = nil
	for _, n := range order {
		gg.Nodes = append(gg.Nodes, n)
	}
	// Re-clone so node pointers are owned by the session copy.
	gg = gg.Clone()

	s := &Session{g: gg, cfg: cfg, backends: cfg.Backends}
	if !cfg.NoPreparation {
		start := time.Now()
		if err := s.prepare(); err != nil {
			return nil, err
		}
		s.stats.PrepareTime = time.Since(start)
	}
	return s, nil
}

// prepare runs the pre-inference pipeline.
func (s *Session) prepare() error {
	g := s.g
	shapes, err := graph.InferShapes(g, s.cfg.InputShapes)
	if err != nil {
		return err
	}
	s.shapes = shapes

	// ---- Backend selection (Equations 4–5). A pinned assignment skips the
	// whole-graph argmin and reports the costs its scorer supplied, so the
	// stats can never describe a schedule the session is not running.
	assign := s.cfg.Assignment
	costs := s.cfg.BackendCosts
	if assign == nil {
		providers := make([]core.CostProvider, len(s.backends))
		for i, b := range s.backends {
			providers[i] = b
		}
		assign, costs = core.SelectBackend(g, shapes, providers)
	}
	// Graph inputs always materialize on the CPU so callers can fill them.
	for _, n := range g.Nodes {
		if n.Op == graph.OpInput {
			assign[n.Name] = s.backends[0].Name()
		}
	}
	s.assign = assign
	s.stats.Assignment = assign
	s.stats.BackendCosts = costs

	byName := map[string]backend.Backend{}
	for _, b := range s.backends {
		byName[b.Name()] = b
	}
	nodeBackend := func(n *graph.Node) backend.Backend {
		if b, ok := byName[assign[n.Name]]; ok {
			return b
		}
		return s.backends[0]
	}

	// ---- Attention fusion, now that the placement is known: a QK →
	// softmax → AV triple on the CPU becomes one node, so its scores and
	// probabilities never reach the arena. The graph is the session's own
	// copy; a re-prepare finds nothing left to fuse.
	if !s.cfg.Unfused {
		onCPU := func(n *graph.Node) bool { return nodeBackend(n) == s.backends[0] }
		if optimizer.FuseAttention(g, shapes, onCPU) > 0 {
			if shapes, err = graph.InferShapes(g, s.cfg.InputShapes); err != nil {
				return err
			}
			s.shapes = shapes
		}
	}

	// ---- Lifetime analysis for the memory planner (Figure 3).
	producerStep := map[string]int{}
	producerBk := map[string]backend.Backend{}
	producerOp := map[string]graph.OpType{}
	type use struct {
		step int
		bk   backend.Backend
	}
	usesOf := map[string][]use{}
	for i, n := range g.Nodes {
		bk := nodeBackend(n)
		for _, o := range n.Outputs {
			producerStep[o] = i
			producerBk[o] = bk
			producerOp[o] = n.Op
		}
		for _, in := range n.Inputs {
			usesOf[in] = append(usesOf[in], use{step: i, bk: bk})
		}
	}
	lastStep := len(g.Nodes) - 1
	// Graph outputs must survive until the caller reads them; graph inputs
	// must survive across runs (the caller fills them once and re-runs), so
	// neither may be recycled by the arena.
	persistent := map[string]bool{}
	for _, o := range g.OutputNames {
		persistent[o] = true
	}
	for _, n := range g.Nodes {
		if n.Op == graph.OpInput {
			for _, o := range n.Outputs {
				persistent[o] = true
			}
		}
	}

	// ---- Zero-copy channel concat: at planned batch 1, an NC4HW4 channel
	// concat on the CPU can copy nothing when each input is whole channel
	// packs, written by a CPU convolution or pool (kernels that take their
	// output's buffer at every run) and read by this concat alone, and is
	// no graph input or output. Each input is then a view at its pack
	// offset in the concat's buffer, which lives from the first producer's
	// step, and the concat runs no step. An Unfused session keeps every
	// copy, so that calibration observes each activation as written.
	cpuBk := s.backends[0]
	var candidates []int // node indices of the concats that qualify
	for i, n := range g.Nodes {
		out := shapes[n.Outputs[0]]
		if s.cfg.Unfused || n.Op != graph.OpConcat || n.Attrs.(*graph.ConcatAttrs).Axis != 1 ||
			nodeBackend(n) != cpuBk || cpuBk.PreferredLayout(len(out)) != tensor.NC4HW4 || out[0] != 1 {
			continue
		}
		ok := true
		for _, in := range n.Inputs {
			op := producerOp[in]
			ok = ok && shapes[in][1]%4 == 0 && (op == graph.OpConv2D || op == graph.OpPool) &&
				producerBk[in] == cpuBk && len(usesOf[in]) == 1 && !persistent[in]
		}
		if ok {
			candidates = append(candidates, i)
		}
	}

	// mirror key for a tensor staged onto another backend.
	mirrorKey := func(name string, bk backend.Backend) string { return name + "@" + bk.Name() }

	// Acquire home buffers and mirrors; remember what to wrap afterwards.
	type pending struct {
		key   string
		bk    backend.Backend
		shape []int
	}
	var wraps []pending
	// mirrors[name] lists backends needing a staged copy, with def step.
	type mirrorInfo struct {
		bk       backend.Backend
		defStep  int
		lastStep int
	}
	mirrorsOf := map[string][]mirrorInfo{}
	inPlace := map[int]bool{} // node index of a concat that runs no step

	// acquire declares every buffer — activations, mirrors and kernel
	// workspaces — to the backends' planners, the inputs of the concats at
	// node indices concats as views of their outputs.
	acquire := func(concats []int) {
		for _, b := range s.backends {
			b.OnClearBuffer()
		}
		s.views = map[string]concatView{}
		from := map[string]int{} // in-place concat output → first producer step
		clear(inPlace)
		for _, i := range concats {
			n := g.Nodes[i]
			cz, first := 0, i
			for _, in := range n.Inputs {
				s.views[in] = concatView{parent: n.Outputs[0], cz: cz}
				cz += shapes[in][1] / 4
				first = min(first, producerStep[in])
			}
			from[n.Outputs[0]] = first
			inPlace[i] = true
		}
		wraps = wraps[:0]
		clear(mirrorsOf)
		for name, pStep := range producerStep {
			home := producerBk[name]
			shape := shapes[name]
			size := tensor.PhysicalLen(home.PreferredLayout(len(shape)), shape)
			last := pStep
			perBk := map[string]*mirrorInfo{}
			for _, u := range usesOf[name] {
				if u.bk == home {
					if u.step > last {
						last = u.step
					}
					continue
				}
				mi, ok := perBk[u.bk.Name()]
				if !ok {
					mi = &mirrorInfo{bk: u.bk, defStep: u.step, lastStep: u.step}
					perBk[u.bk.Name()] = mi
				}
				if u.step < mi.defStep {
					mi.defStep = u.step
				}
				if u.step > mi.lastStep {
					mi.lastStep = u.step
				}
			}
			for _, mi := range perBk {
				mirrorsOf[name] = append(mirrorsOf[name], *mi)
				// The home tensor must survive until the staging copy happens.
				if mi.defStep > last {
					last = mi.defStep
				}
			}
			if persistent[name] {
				last = lastStep
			}
			if v, ok := s.views[name]; ok {
				home.OnAcquireView(name, v.parent, v.cz*shape[2]*shape[3]*4, size, pStep)
			} else {
				if first, ok := from[name]; ok {
					pStep = first
				}
				home.OnAcquireBuffer(name, size, pStep, backend.StorageDynamic)
			}
			home.OnReleaseBuffer(name, last)
			wraps = append(wraps, pending{key: name, bk: home, shape: shape})
			for _, mi := range mirrorsOf[name] {
				msize := tensor.PhysicalLen(mi.bk.PreferredLayout(len(shape)), shape)
				mkey := mirrorKey(name, mi.bk)
				mi.bk.OnAcquireBuffer(mkey, msize, mi.defStep, backend.StorageDynamic)
				mi.bk.OnReleaseBuffer(mkey, mi.lastStep)
				wraps = append(wraps, pending{key: mkey, bk: mi.bk, shape: shape})
			}
		}

		// Workspace planning: every kernel declares its transient needs
		// (GEMM panels, Winograd tile buffers, staging copies) up front, and
		// the Figure 3 planner lays them into the same reuse arena as the
		// activations — a workspace lives only during its node's step, so
		// it shares bytes with dead activations and other steps'
		// workspaces. Steady-state Run then never touches the allocator.
		for i, n := range g.Nodes {
			bk := nodeBackend(n)
			sizer, ok := bk.(backend.WorkspaceSizer)
			if !ok {
				continue
			}
			ins := make([][]int, len(n.Inputs))
			for j, name := range n.Inputs {
				ins[j] = shapes[name]
			}
			outs := make([][]int, len(n.Outputs))
			for j, name := range n.Outputs {
				outs[j] = shapes[name]
			}
			if size := sizer.NodeWorkspaceFloats(n, ins, outs); size > 0 {
				key := backend.WorkspaceKey(n.Name)
				bk.OnAcquireBuffer(key, size, i, backend.StorageDynamic)
				bk.OnReleaseBuffer(key, i)
			}
		}
	}

	// A concat's buffer now lives through its producers' steps, which can
	// raise the arena's peak where long branches run beside it (inception's
	// blocks) or fragment the packing around big workspaces (fp32
	// squeezenet on two lanes): the concats go in place only if the CPU
	// arena stays within its size with every concat a copy, else all of
	// them copy.
	chosen := candidates
	acquire(nil)
	if len(candidates) > 0 {
		limit, err := cpuBk.PlanArenaSize()
		if err != nil {
			return err
		}
		acquire(candidates)
		size, err := cpuBk.PlanArenaSize()
		if err != nil {
			return err
		}
		if size > limit {
			chosen = nil
			acquire(nil)
		}
	}
	s.stats.InPlaceConcats = len(chosen)

	// ---- Materialize arenas and wrap tensors.
	s.stats.ArenaFloats = map[string]int{}
	s.stats.NoReuseFloats = map[string]int{}
	for _, b := range s.backends {
		if err := b.OnAllocate(); err != nil {
			return err
		}
		s.stats.ArenaFloats[b.Name()] = b.ArenaSize()
		s.stats.NoReuseFloats[b.Name()] = b.NoReuseSize()
	}
	bound := map[string]*tensor.Tensor{}
	for _, w := range wraps {
		layout := w.bk.PreferredLayout(len(w.shape))
		bound[w.key+"#"+w.bk.Name()] = tensor.WrapBuffer(w.bk.Buffer(w.key), layout, w.shape...)
	}
	s.bound = bound
	lookup := func(key string, bk backend.Backend) *tensor.Tensor {
		return bound[key+"#"+bk.Name()]
	}

	// ---- Create executions with staging copies (pre-computed constants,
	// Figure 2's "match" step). Quantized (int8) weights from the model
	// compressor are dequantized once here, during pre-inference.
	dequantized := map[string]*tensor.Tensor{}
	weights := func(name string) *tensor.Tensor {
		t := s.g.Weights[name]
		if t == nil || t.DType() != tensor.Int8 {
			return t
		}
		if d, ok := dequantized[name]; ok {
			return d
		}
		d, err := t.Dequantize()
		if err != nil {
			// Unreachable: guarded by the dtype check above.
			return t
		}
		dequantized[name] = d
		return d
	}
	s.steps = nil
	s.stats.SchemeCounts = map[string]int{}
	copiedAt := map[string]bool{} // mirrorkey → staged already
	for i, n := range g.Nodes {
		if inPlace[i] {
			continue
		}
		bk := nodeBackend(n)
		var copies []copyOp
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for j, inName := range n.Inputs {
			home := producerBk[inName]
			if home == bk {
				ins[j] = lookup(inName, bk)
				continue
			}
			mkey := mirrorKey(inName, bk)
			mt := lookup(mkey, bk)
			ins[j] = mt
			// Stage only at the mirror's first consuming step.
			for _, mi := range mirrorsOf[inName] {
				if mi.bk == bk && mi.defStep == i && !copiedAt[mkey] {
					copies = append(copies, copyOp{from: lookup(inName, home), to: mt, via: bk})
					copiedAt[mkey] = true
				}
			}
			s.stats.CrossBackendCopies = len(copiedAt)
		}
		outs := make([]*tensor.Tensor, len(n.Outputs))
		for j, oName := range n.Outputs {
			outs[j] = lookup(oName, bk)
		}
		if n.Op == graph.OpConv2D {
			// Ask the owning backend which kernel will actually run (a tuner
			// override or the int8 route may differ from the bare heuristic).
			var route string
			if cs, ok := bk.(core.ConvSchemer); ok {
				route = cs.ConvRoute(n, shapes[n.Inputs[0]])
			} else {
				route = core.SelectConvScheme(n.Attrs.(*graph.Conv2DAttrs), shapes[n.Inputs[0]]).Scheme.String()
			}
			s.stats.SchemeCounts[route]++
		}
		exec, err := bk.OnCreate(n, ins, outs, weights)
		if err != nil {
			return fmt.Errorf("session: node %q on %s: %w", n.Name, bk.Name(), err)
		}
		s.steps = append(s.steps, runStep{copies: copies, exec: exec, node: n, outs: outs})
	}

	// ---- Bind graph inputs and outputs.
	s.inputs = map[string]*tensor.Tensor{}
	s.outputs = map[string]*tensor.Tensor{}
	for _, n := range g.Nodes {
		if n.Op == graph.OpInput {
			t := lookup(n.Outputs[0], nodeBackend(n))
			s.inputs[n.Outputs[0]] = t
		}
	}
	for _, o := range g.OutputNames {
		s.outputs[o] = lookup(o, producerBk[o])
	}
	return nil
}

// Input returns the writable input tensor (CPU-resident).
func (s *Session) Input(name string) *tensor.Tensor {
	if s.cfg.NoPreparation && s.inputs == nil {
		// Lazily prepare so the caller can fill inputs; Run will re-prepare.
		if err := s.prepareFresh(); err != nil {
			panic(err)
		}
	}
	return s.inputs[name]
}

// Output returns the tensor holding a declared graph output after Run.
func (s *Session) Output(name string) *tensor.Tensor { return s.outputs[name] }

// OutputNames lists the declared outputs.
func (s *Session) OutputNames() []string { return s.g.OutputNames }

// Stats returns pre-inference statistics.
func (s *Session) Stats() Stats { return s.stats }

// prepareFresh clears backend state and re-runs preparation (the
// NoPreparation path).
func (s *Session) prepareFresh() error {
	saved := map[string]*tensor.Tensor{}
	for name, t := range s.inputs {
		saved[name] = t.Clone()
	}
	for _, b := range s.backends {
		b.OnClearBuffer()
	}
	if err := s.prepare(); err != nil {
		return err
	}
	for name, t := range saved {
		if dst, ok := s.inputs[name]; ok && tensor.EqualShape(dst.Shape(), t.Shape()) {
			dst.CopyFrom(t)
		}
	}
	return nil
}

// ctxDone validates a (possibly nil) context before a run and returns its
// done channel; nil ctx behaves like context.Background().
func ctxDone(ctx context.Context) (<-chan struct{}, error) {
	if ctx == nil {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("session: cancelled before run: %w", err)
	}
	return ctx.Done(), nil
}

// Run executes one inference. With preparation decoupled (the default) this
// is pure compute plus staging copies; with NoPreparation it interleaves
// planning, allocation and weight packing, reproducing the "w/o" rows of
// Table 2.
//
// Cancellation is checked between pipeline operators: a cancelled or expired
// ctx aborts the run before the next node and returns an error wrapping
// ctx.Err(). A nil ctx behaves like context.Background().
func (s *Session) Run(ctx context.Context) error {
	return s.RunObserved(ctx, nil)
}

// RunObserved is Run with a per-node observation hook: after each node
// executes, observe is called with the node and its bound output tensors
// (still backend-resident, in the backend's preferred layout — read, don't
// retain: the arena recycles them as the run proceeds). The calibration pass
// uses this to record activation ranges without disabling memory reuse.
func (s *Session) RunObserved(ctx context.Context, observe func(n *graph.Node, outputs []*tensor.Tensor)) error {
	if s.cfg.NoPreparation {
		if err := s.prepareFresh(); err != nil {
			return err
		}
	}
	done, err := ctxDone(ctx)
	if err != nil {
		return err
	}
	for _, b := range s.backends {
		b.OnExecuteBegin()
	}
	defer func() {
		for _, b := range s.backends {
			b.OnExecuteEnd()
		}
	}()
	for i := range s.steps {
		st := &s.steps[i]
		if done != nil {
			select {
			case <-done:
				return fmt.Errorf("session: cancelled at node %q: %w", st.node.Name, ctx.Err())
			default:
			}
		}
		if err := s.execStep(st); err != nil {
			return err
		}
		if observe != nil {
			observe(st.node, st.outs)
		}
	}
	return nil
}

// execStep runs one node — staging copies, optional injected fault, kernel
// execution — behind the session's containment barrier: a panic anywhere
// inside (the pool re-raises worker-lane panics on this goroutine) is
// recovered into an error carrying the op identity and the panicking stack,
// so a crashing kernel fails the inference instead of the process.
func (s *Session) execStep(st *runStep) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*sched.PanicError)
			if !ok {
				pe = &sched.PanicError{Value: r, Stack: debug.Stack()}
			}
			if pe.Op == "" {
				pe.Op = st.node.Name
			}
			err = fmt.Errorf("session: node %q: %w", st.node.Name, pe)
		}
	}()
	for _, c := range st.copies {
		if err := c.via.OnCopyBuffer(c.from, c.to); err != nil {
			return fmt.Errorf("session: staging for %q: %w", st.node.Name, err)
		}
	}
	if s.cfg.Fault != nil {
		if o := s.cfg.Fault.Hit(fault.SiteSessionKernel, st.node.Name); o != nil {
			if ferr := o.Apply(); ferr != nil {
				return fmt.Errorf("session: node %q: %w", st.node.Name, ferr)
			}
		}
	}
	if err := st.exec.Run(); err != nil {
		return fmt.Errorf("session: node %q: %w", st.node.Name, err)
	}
	return nil
}

// Close releases backend-owned resources (persistent worker pools). The
// session remains usable afterwards with inline execution; Close is
// idempotent and safe on a nil session.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	for _, b := range s.backends {
		if c, ok := b.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
